"""Element-wise assembly of residuals, Jacobians, and auxiliary matrices.

The discrete residual of the space-time scheme at a state u is

    r_i = int_Q du/dt phi_i + flux(grad_x u) . grad_x phi_i - f phi_i,

and the Newton Jacobian adds the time matrix to the linearized diffusion.
Rows and columns of constrained dofs are replaced by identity, matching the
homogeneous boundary and initial conditions.  Every form is contracted on
the reference element: one GEMM against tables shared by all elements
(``FeSpace.batch``), with each element's affine map applied to the
point data (Cuvelier, Japhet, Scarella, BIT 56 (2016)).  A form meets its
test function only through these element vectors: the element values that
localize the error estimator contract them with the test function's element
coefficients, which are never evaluated at quadrature points.

A state's data at the quadrature points (``QuadratureState``: gradients,
|grad_x u|^2 + eps^2, its one fractional power and the residual element
vectors) is computed once per Newton iterate and shared by every form
evaluated there, each term at the order it needs (``quadrature_state``): a
degree-1 state at one point per element, where it is constant, and the load
int f phi, cached per space, at the one form order of both degrees
(``FeSpace.default_order``).  The Jacobian applies the flux derivative in
rank-one form, a I + (p-2)(a/s) g g^T, and never stores it per point.
Matrices are summed by one ``np.bincount`` into the sparsity pattern that
``FeSpace.csr_pattern`` builds once per space.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .problems import ProblemDefinition
from .spaces import FeFunction, FeSpace


@dataclass(frozen=True)
class QuadratureState:
    """A function u at the quadrature points for the forms of one space:
    the spatial gradients ``gx`` (ne, nq, d), the time derivative ``ut``
    (ne, nq), ``s`` = |gx|^2 + eps^2 and ``a`` = s^((p-2)/2), so that
    flux = a gx and flux' = a I + (p-2) (a/s) gx gx^T.  They are evaluated
    at the rule of order ``qorder`` (see ``quadrature_state``); the load
    stays at the form order."""

    u: FeFunction
    prob: ProblemDefinition
    qorder: int
    gx: np.ndarray
    ut: np.ndarray
    s: np.ndarray
    a: np.ndarray

    @functools.cached_property
    def residual(self) -> np.ndarray:
        """Residual element vectors at u, evaluated once per state (read-only):
        the global residual and the estimator's element values share them."""
        space = self.u.space
        b = space.batch(self.qorder)
        r = (b["scale"] * self.ut) @ b["values"]
        r += space.integrate_grad_x(self.qorder, self.a[..., None] * self.gx)
        r -= space.load_vectors(self.prob.source, space.default_order())
        r.flags.writeable = False
        return r


def quadrature_state(space: FeSpace, u,
                     prob: ProblemDefinition) -> QuadratureState:
    """The state of u at the quadrature points, evaluated once.

    Every form of this module takes u as a ``FeFunction`` or as its state;
    a state is returned as it is, after checking that it was evaluated on
    this space and problem.

    The one order rule of the assembly: on degree 1, gx, ut, s and a are
    constant per element, so every integrand that meets the state (u_t phi_a
    and phi_a dphi_b/dt, linear; flux . grad_x phi_a and flux' grad_x w .
    grad_x z, constant) has degree at most 1, and the one-point rule of order
    1 integrates it exactly.  On degree 2 the flux power is not a
    polynomial, and the state takes the form order
    ``FeSpace.default_order``.  The load int f phi_a does not depend on u
    and is always taken at the form order, so residuals of both degrees
    integrate f alike.
    """
    if isinstance(u, QuadratureState):
        if u.u.space is not space or u.prob is not prob:
            raise ValueError("quadrature state belongs to another space "
                             "or problem")
        return u
    if u.space is not space:
        raise ValueError("function does not live on the given space")
    if space.mesh.spatial_dim != prob.d:
        raise ValueError("problem and space dimensions do not match")
    qorder = 1 if space.degree == 1 else space.default_order()
    _vals, grads = u.at_quadrature(qorder)
    gx = grads[..., :-1]
    s = np.einsum("eqi,eqi->eq", gx, gx) + prob.eps * prob.eps
    return QuadratureState(u, prob, qorder, gx, grads[..., -1], s,
                           s ** ((prob.p - 2.0) / 2.0))


def assemble_residual(space: FeSpace, u,
                      prob: ProblemDefinition) -> np.ndarray:
    """Global residual with constrained entries set to zero."""
    r_loc = quadrature_state(space, u, prob).residual
    r = np.bincount(space.elem_dofs.ravel(), r_loc.ravel(), space.n_dofs)
    r[space.constrained] = 0.0
    return r


def _scatter_matrix(space: FeSpace, k_loc: np.ndarray) -> sp.csr_matrix:
    """Sum element matrices into a CSR matrix on the space's cached pattern.
    Constrained rows and columns become identity after the one summation of
    duplicates, so the kept entries are the plain sums; entries that are
    then zero are dropped."""
    pat = space.csr_pattern
    data = np.bincount(pat["slot"], weights=k_loc.ravel(),
                       minlength=len(pat["indices"]))
    data[pat["fixed"]] = 0.0
    data[pat["ident"]] = 1.0
    K = sp.csr_matrix((data, pat["indices"].copy(), pat["indptr"].copy()),
                      shape=(space.n_dofs, space.n_dofs))
    K.eliminate_zeros()
    return K


def _time_matrices(space: FeSpace, b: dict) -> np.ndarray:
    """Element matrices of int_e (dw/dt) v, shape (n_elements, n_local, n_local)."""
    _jac, inv_jac_t, absdet = space.mesh.geometry
    nloc = b["values"].shape[1]
    return ((absdet[:, None] * inv_jac_t[:, -1]) @ b["time_table"]).reshape(
        -1, nloc, nloc)


def assemble_jacobian(space: FeSpace, u,
                      prob: ProblemDefinition) -> sp.csr_matrix:
    """Newton Jacobian: time matrix plus linearized diffusion at u."""
    st = quadrature_state(space, u, prob)
    b = space.batch(st.qorder)
    js = space.mesh.geometry[1][:, :st.gx.shape[-1], :]  # (ne, d, D)
    # J_x^T (w flux') J_x per point in rank-one form, with h = J_x^T gx:
    # w a J_x^T J_x + w (p-2) (a/s) h h^T, laid out (ne, pair, nq) over the
    # upper-triangle pairs of the stiffness table, then one GEMM against it
    upper, lower = b["pairs"]
    jst = np.swapaxes(js, 1, 2)
    h = jst @ np.swapaxes(st.gx, 1, 2)  # (ne, D, nq)
    c = b["scale"] * st.a
    B = h[:, upper] * ((prob.p - 2.0) / st.s * c)[:, None, :] * h[:, lower]
    B += c[:, None, :] * (jst @ js)[:, upper, lower, None]
    k_loc = B.reshape(len(B), -1) @ b["stiffness_table"]
    k_loc += _time_matrices(space, b).reshape(k_loc.shape)
    return _scatter_matrix(space, k_loc)


def assemble_time_matrix(space: FeSpace) -> sp.csr_matrix:
    """Matrix of the time-derivative form int_Q (dw/dt) v."""
    return _scatter_matrix(space, _time_matrices(
        space, space.batch(space.default_order())))


def jacobian_form_element_values(space: FeSpace, u,
                                 direction: np.ndarray, test: np.ndarray,
                                 prob: ProblemDefinition) -> np.ndarray:
    """Per-element values of the linearized form at u in a given direction.

    Computes int_e [ (dw/dt) z + (flux'(grad_x u) grad_x w) . grad_x z ] for
    the functions w, z with coefficient vectors ``direction`` and ``test``:
    the element vectors of the form in w, contracted with z's element
    coefficients.  Summing over elements gives the full bilinear form without
    boundary modifications, which is what weighted residual estimates need.
    """
    st = quadrature_state(space, u, prob)
    b = space.batch(st.qorder)
    _vals, wg = FeFunction(space, direction).at_quadrature(st.qorder)
    wx = wg[..., :-1]
    c = (prob.p - 2.0) * st.a / st.s * np.einsum("eqi,eqi->eq", st.gx, wx)
    v = (b["scale"] * wg[..., -1]) @ b["values"]
    v += space.integrate_grad_x(st.qorder, st.a[..., None] * wx
                                + c[..., None] * st.gx)
    return np.einsum("ea,ea->e", v, test[space.elem_dofs])


def residual_form_element_values(space: FeSpace, u,
                                 weight: np.ndarray,
                                 prob: ProblemDefinition) -> np.ndarray:
    """Per-element values of the residual form at u tested with a weight.

    Computes int_e [ (du/dt) w + flux(grad_x u) . grad_x w - f w ] where w is
    the function with coefficient vector ``weight``: the residual element
    vectors contracted with w's element coefficients.
    """
    r = quadrature_state(space, u, prob).residual
    return np.einsum("ea,ea->e", r, weight[space.elem_dofs])
