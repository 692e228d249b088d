"""Element-wise assembly of residuals, Jacobians, and auxiliary matrices.

The discrete residual of the space-time scheme at a state u is

    r_i = int_Q du/dt phi_i + flux(grad_x u) . grad_x phi_i - f phi_i,

and the Newton Jacobian adds the time matrix to the linearized diffusion.
Rows and columns of constrained dofs are replaced by identity, matching the
homogeneous boundary and initial conditions.  Every form is contracted on
the reference element: one GEMM against tables shared by all elements
(``FeSpace.batch``), with each element's affine map applied to the
point data (Cuvelier, Japhet, Scarella, BIT 56 (2016)).
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
    r = (b["scale"] * (ut - f)) @ b["values"]
    r += space.integrate_grad_x(order, flux(gx, prob.p, prob.eps))
    return r


def assemble_residual(space: FeSpace, u: FeFunction, prob: ProblemDefinition,
                      order: int = None) -> np.ndarray:
    """Global residual with constrained entries set to zero."""
    r_loc = residual_element_vectors(space, u, prob, order)
    r = np.zeros(space.n_dofs)
    np.add.at(r, space.elem_dofs, r_loc)
    r[space.constrained] = 0.0
    return r


def _scatter_matrix(space: FeSpace, k_loc: np.ndarray,
                    dirichlet: bool) -> sp.csr_matrix:
    """Sum element matrices into a CSR matrix.  With ``dirichlet``,
    constrained rows and columns become identity after the one summation of
    duplicates, so kept entries sum in the same order as without it."""
    ed = space.elem_dofs
    nloc = ed.shape[1]
    rows = np.repeat(ed, nloc, axis=1).ravel()
    cols = np.tile(ed, (1, nloc)).ravel()
    K = sp.coo_matrix((k_loc.ravel(), (rows, cols)),
                      shape=(space.n_dofs, space.n_dofs)).tocsr()
    if dirichlet:
        rows = np.repeat(np.arange(space.n_dofs), np.diff(K.indptr))
        keep = space.free[rows] & space.free[K.indices]
        K.data = np.where(keep, K.data, rows == K.indices)
        K.eliminate_zeros()
    return K


def _time_matrices(space: FeSpace, b: dict) -> np.ndarray:
    """Element matrices of int_e (dw/dt) v, shape (n_elements, n_local, n_local)."""
    _jac, inv_jac_t, absdet = space.geometry()
    nloc = b["values"].shape[1]
    return ((absdet[:, None] * inv_jac_t[:, -1]) @ b["time_table"]).reshape(
        -1, nloc, nloc)


def assemble_jacobian(space: FeSpace, u: FeFunction, prob: ProblemDefinition,
                      order: int = None, dirichlet: bool = True) -> sp.csr_matrix:
    """Newton Jacobian: time matrix plus linearized diffusion at u."""
    if order is None:
        order = space.default_order()
    b, gx, _ut = _state(space, u, prob, order)
    A = flux_jacobian(gx, prob.p, prob.eps)
    A *= b["scale"][..., None, None]
    _jac, inv_jac_t, _det = space.geometry()
    js = inv_jac_t[:, :gx.shape[-1], :]  # (ne, d, D)
    # the weighted flux Jacobian on the reference element, J_x^T (w A) J_x
    # per point, then one GEMM against the gradient-pair table
    B = np.einsum("eik,eqij,ejl->eqkl", js, A, js, optimize=True)
    k_loc = _time_matrices(space, b)
    k_loc += (B.reshape(len(B), -1) @ b["stiffness_table"]).reshape(
        k_loc.shape)
    return _scatter_matrix(space, k_loc, dirichlet)


def assemble_time_matrix(space: FeSpace, order: int = None,
                         dirichlet: bool = True) -> sp.csr_matrix:
    """Matrix of the time-derivative form int_Q (dw/dt) v."""
    if order is None:
        order = space.default_order()
    return _scatter_matrix(space, _time_matrices(space, space.batch(order)),
                           dirichlet)


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
