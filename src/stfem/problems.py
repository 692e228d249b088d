"""Problem data for the regularized parabolic p-Laplace equation.

The strong form on the space-time cylinder Q = (0,1)^(d+1) is

    du/dt - div_x((|grad_x u|^2 + eps^2)^((p-2)/2) grad_x u) = f,

with homogeneous Dirichlet data on the lateral boundary and homogeneous
initial data on the bottom face.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


def flux(g: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Regularized p-Laplace flux (|g|^2 + eps^2)^((p-2)/2) g.

    Accepts gradients of shape (..., d).
    """
    g = np.asarray(g, dtype=float)
    s = np.sum(g * g, axis=-1) + eps * eps
    return s[..., None] ** ((p - 2.0) / 2.0) * g


def flux_jacobian(g: np.ndarray, p: float, eps: float) -> np.ndarray:
    """Derivative of the flux at g, shape (..., d, d).

    Equals a*I + (p-2)*b*g g^T with a = s^((p-2)/2), b = s^((p-4)/2),
    s = |g|^2 + eps^2; symmetric and positive definite for eps > 0.  Only
    the manufactured source and the tests use it: the assembly applies the
    same derivative in rank-one form and never stores it per point.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    s = np.sum(g * g, axis=-1) + eps * eps
    a = s ** ((p - 2.0) / 2.0)
    b = s ** ((p - 4.0) / 2.0)
    eye = np.eye(d)
    outer = g[..., :, None] * g[..., None, :]
    return a[..., None, None] * eye + (p - 2.0) * b[..., None, None] * outer


@dataclass
class ManufacturedSolution:
    """Closed-form solution with the derivatives needed for source terms.

    All callables take points of shape (n, d+1), last column time, and return
    arrays: value (n,) and grad (n, d), the spatial gradient, which the error
    norms read; ``derivatives`` returns (dt (n,), grad, hess (n, d, d)), the
    time derivative, gradient and spatial Hessian that the source reads, from
    one evaluation of the solution's factors.
    """

    d: int
    value: Callable[[np.ndarray], np.ndarray]
    grad: Callable[[np.ndarray], np.ndarray]
    derivatives: Callable[[np.ndarray], tuple]


def smooth_product_solution(d: int) -> ManufacturedSolution:
    """u(x, t) = t^2 e^t prod_i sin(pi x_i), vanishing on the lateral and
    bottom boundaries of the unit box."""

    def parts(pts):
        pts = np.atleast_2d(pts)
        x = pts[:, :d]
        t = pts[:, d]
        s = np.sin(np.pi * x)
        c = np.cos(np.pi * x)
        g = t * t * np.exp(t)
        gdot = (2.0 * t + t * t) * np.exp(t)
        return s, c, g, gdot

    def grad_of(s, c, g, gdot):
        out = np.empty_like(s)
        for i in range(d):
            prod = np.ones(s.shape[0])
            for j in range(d):
                prod = prod * (c[:, j] if j == i else s[:, j])
            out[:, i] = np.pi * g * prod
        return out

    def hess_of(s, c, g, gdot):
        n = s.shape[0]
        out = np.empty((n, d, d))
        for i in range(d):
            for j in range(d):
                prod = np.ones(n)
                for m in range(d):
                    if m == i or m == j:
                        prod = prod * (s[:, m] if i == j else c[:, m])
                    else:
                        prod = prod * s[:, m]
                out[:, i, j] = (np.pi ** 2) * g * (-prod if i == j else prod)
        return out

    def value(pts):
        s, _, g, _ = parts(pts)
        return g * s.prod(axis=1)

    def derivatives(pts):
        s, _, _, gdot = fac = parts(pts)
        return gdot * s.prod(axis=1), grad_of(*fac), hess_of(*fac)

    return ManufacturedSolution(d, value, lambda pts: grad_of(*parts(pts)),
                                derivatives)


@dataclass
class ProblemDefinition:
    """One initial-boundary value problem instance.

    Attributes
    ----------
    p : nonlinearity exponent, > 1.
    eps : regularization parameter, > 0.
    d : spatial dimension.
    source : callable, points (n, d+1) -> (n,).
    exact : optional manufactured solution for error measurement.
    exact_goal : optional exact value of the active goal functional.
    """

    p: float
    eps: float
    d: int
    source: Callable[[np.ndarray], np.ndarray]
    exact: Optional[ManufacturedSolution] = None
    exact_goal: Optional[float] = None

    def __post_init__(self):
        if not self.p > 1.0:
            raise ValueError(f"need p > 1, got {self.p}")
        if not self.eps > 0.0:
            raise ValueError(f"need eps > 0, got {self.eps}")


def manufactured_source(exact: ManufacturedSolution, p: float,
                        eps: float) -> Callable[[np.ndarray], np.ndarray]:
    """Source f = du/dt - div_x(flux(grad_x u)) from closed-form derivatives.

    The divergence is evaluated as the Frobenius product of the flux Jacobian
    with the spatial Hessian, avoiding hand expansion of the divergence.
    """
    def f(pts):
        dt, g, H = exact.derivatives(pts)
        return dt - np.einsum("nij,nij->n", flux_jacobian(g, p, eps), H)

    return f


def smooth_problem(d: int, p: float = 4.0, eps: float = 1e-5) -> ProblemDefinition:
    """Manufactured problem with the smooth product solution."""
    exact = smooth_product_solution(d)
    return ProblemDefinition(p=p, eps=eps, d=d,
                             source=manufactured_source(exact, p, eps),
                             exact=exact)
