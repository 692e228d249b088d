"""Element-wise assembly of residuals, Jacobians, and auxiliary matrices.

The discrete residual of the space-time scheme at a state u is

    r_i = int_Q du/dt phi_i + flux(grad_x u) . grad_x phi_i - f phi_i,

and the Newton Jacobian adds the time matrix to the linearized diffusion.
Rows and columns of constrained dofs are replaced by identity, matching the
homogeneous boundary and initial conditions.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .problems import ProblemDefinition
from .spaces import FeFunction, FeSpace


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
    s = |g|^2 + eps^2; symmetric and positive definite for eps > 0.
    """
    g = np.asarray(g, dtype=float)
    d = g.shape[-1]
    s = np.sum(g * g, axis=-1) + eps * eps
    a = s ** ((p - 2.0) / 2.0)
    b = s ** ((p - 4.0) / 2.0)
    eye = np.eye(d)
    outer = g[..., :, None] * g[..., None, :]
    return a[..., None, None] * eye + (p - 2.0) * b[..., None, None] * outer


def _state(space: FeSpace, u: FeFunction, prob: ProblemDefinition, order: int):
    if u.space is not space:
        raise ValueError("function does not live on the given space")
    if space.mesh.spatial_dim != prob.d:
        raise ValueError("problem and space dimensions do not match")
    b = space.batch(order)
    _vals, grads = u.at_quadrature(order)
    return b, grads[..., :-1], grads[..., -1]


def residual_element_vectors(space: FeSpace, u: FeFunction,
                             prob: ProblemDefinition, order: int = None) -> np.ndarray:
    """Per-element residual contributions, shape (n_elements, n_local).

    No boundary conditions are applied; summing entry [e, a] into dof
    elem_dofs[e, a] gives the raw residual vector.
    """
    if order is None:
        order = space.default_order()
    b, gx, ut = _state(space, u, prob, order)
    f = space.source_values(prob.source, order)
    q = flux(gx, prob.p, prob.eps)
    scale = b["scale"]
    phi = b["values"]
    gphi = b["grads"][..., :-1]
    r = np.einsum("eq,qa,eq->ea", scale, phi, ut - f)
    r += np.einsum("eq,eqi,eqai->ea", scale, q, gphi)
    return r


def assemble_residual(space: FeSpace, u: FeFunction, prob: ProblemDefinition,
                      order: int = None) -> np.ndarray:
    """Global residual with constrained entries set to zero."""
    r_loc = residual_element_vectors(space, u, prob, order)
    r = np.zeros(space.n_dofs)
    np.add.at(r, space.elem_dofs, r_loc)
    r[space.constrained] = 0.0
    return r


def _scatter_matrix(space: FeSpace, k_loc: np.ndarray) -> sp.csr_matrix:
    ed = space.elem_dofs
    nloc = ed.shape[1]
    rows = np.repeat(ed, nloc, axis=1).ravel()
    cols = np.tile(ed, (1, nloc)).ravel()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)),
                      shape=(space.n_dofs, space.n_dofs))
    return K.tocsr()


def _time_matrices(b: dict) -> np.ndarray:
    """Element matrices of int_e (dw/dt) v, shape (n_elements, n_local, n_local)."""
    weighted = b["scale"][..., None] * b["values"]  # (ne, nq, nloc)
    return np.swapaxes(weighted, 1, 2) @ b["grads"][..., -1]


def apply_dirichlet(K: sp.csr_matrix, space: FeSpace) -> sp.csr_matrix:
    """Zero constrained rows and columns and put ones on their diagonal."""
    m = space.free.astype(float)
    Dm = sp.diags(m)
    Ic = sp.diags(1.0 - m)
    return (Dm @ K @ Dm + Ic).tocsr()


def assemble_jacobian(space: FeSpace, u: FeFunction, prob: ProblemDefinition,
                      order: int = None, dirichlet: bool = True) -> sp.csr_matrix:
    """Newton Jacobian: time matrix plus linearized diffusion at u."""
    if order is None:
        order = space.default_order()
    b, gx, _ut = _state(space, u, prob, order)
    A = flux_jacobian(gx, prob.p, prob.eps)
    A *= b["scale"][..., None, None]
    gphi = b["grads"]
    dx = A.shape[-1]
    k_loc = _time_matrices(b)
    # sum over i, j of (A_ij G_j)^T G_i per element, G_i = dphi/dx_i at the
    # points: batched matmuls contracting the points, with one temporary
    # the size of a gradient component, (ne, nq, nloc)
    buf = np.empty(gphi.shape[:-1])
    for i in range(dx):
        for j in range(dx):
            np.multiply(A[..., i, j, None], gphi[..., j], out=buf)
            k_loc += np.swapaxes(buf, 1, 2) @ gphi[..., i]
    K = _scatter_matrix(space, k_loc)
    return apply_dirichlet(K, space) if dirichlet else K


def assemble_time_matrix(space: FeSpace, order: int = None,
                         dirichlet: bool = True) -> sp.csr_matrix:
    """Matrix of the time-derivative form int_Q (dw/dt) v."""
    if order is None:
        order = space.default_order()
    K = _scatter_matrix(space, _time_matrices(space.batch(order)))
    return apply_dirichlet(K, space) if dirichlet else K


def jacobian_form_element_values(space: FeSpace, u: FeFunction,
                                 direction: np.ndarray, test: np.ndarray,
                                 prob: ProblemDefinition,
                                 order: int = None) -> np.ndarray:
    """Per-element values of the linearized form at u in a given direction.

    Computes int_e [ (dw/dt) z + (flux'(grad_x u) grad_x w) . grad_x z ] for
    the functions w, z with coefficient vectors ``direction`` and ``test``.
    Summing over elements gives the full bilinear form without boundary
    modifications, which is what weighted residual estimates need.
    """
    if order is None:
        order = space.default_order()
    b, gx, _ut = _state(space, u, prob, order)
    A = flux_jacobian(gx, prob.p, prob.eps)
    w = FeFunction(space, direction)
    z = FeFunction(space, test)
    _, wg = w.at_quadrature(order)
    zv, zg = z.at_quadrature(order)
    scale = b["scale"]
    out = np.einsum("eq,eq,eq->e", scale, wg[..., -1], zv)
    out += np.einsum("eq,eqij,eqj,eqi->e", scale, A, wg[..., :-1], zg[..., :-1])
    return out


def residual_form_element_values(space: FeSpace, u: FeFunction,
                                 weight: np.ndarray, prob: ProblemDefinition,
                                 order: int = None) -> np.ndarray:
    """Per-element values of the residual form at u tested with a weight.

    Computes int_e [ (du/dt) w + flux(grad_x u) . grad_x w - f w ] where w is
    the function with coefficient vector ``weight``.
    """
    if order is None:
        order = space.default_order()
    b, gx, ut = _state(space, u, prob, order)
    f = space.source_values(prob.source, order)
    q = flux(gx, prob.p, prob.eps)
    wf = FeFunction(space, weight)
    wv, wg = wf.at_quadrature(order)
    scale = b["scale"]
    out = np.einsum("eq,eq->e", scale, (ut - f) * wv)
    out += np.einsum("eq,eqi,eqi->e", scale, q, wg[..., :-1])
    return out
