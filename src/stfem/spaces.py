"""Continuous Lagrange finite element spaces on space-time simplicial meshes.

Degrees 1 and 2 are supported.  Functions in the trial space vanish on the
lateral boundary and the bottom (initial-time) face of the space-time box;
dofs on the top face are free.  The Dirichlet mask is read from the dof
coordinates by :func:`stfem.mesh.box_faces`: on the unit box a P2 edge
midpoint lies on a face exactly when both end points do.  A space holds only
what depends on its degree; the affine maps, quadrature points and source
values are the mesh's, shared by both degrees.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .mesh import _ELEMENT_BLOCK, SimplicialMesh, box_faces, local_edges
from .quadrature import simplex_rule


def tabulate_shape(D: int, k: int, points: np.ndarray):
    """Reference shape function values and gradients at given points.

    Returns (values, grads) with shapes (nq, nloc) and (nq, nloc, D).
    The local dof order is vertices first, then edge midpoints in
    lexicographic local-edge order (for k=2).
    """
    pts = np.atleast_2d(points)
    nq = pts.shape[0]
    lam = np.empty((nq, D + 1))
    lam[:, 0] = 1.0 - pts.sum(axis=1)
    lam[:, 1:] = pts
    dlam = np.zeros((D + 1, D))
    dlam[0, :] = -1.0
    dlam[1:, :] = np.eye(D)

    if k == 1:
        vals = lam
        grads = np.broadcast_to(dlam, (nq, D + 1, D)).copy()
        return vals, grads
    if k == 2:
        edges = local_edges(D)
        nloc = (D + 1) + len(edges)
        vals = np.empty((nq, nloc))
        grads = np.empty((nq, nloc, D))
        for i in range(D + 1):
            vals[:, i] = lam[:, i] * (2.0 * lam[:, i] - 1.0)
            grads[:, i, :] = (4.0 * lam[:, i, None] - 1.0) * dlam[i]
        for m, (a, b) in enumerate(edges):
            j = D + 1 + m
            vals[:, j] = 4.0 * lam[:, a] * lam[:, b]
            grads[:, j, :] = 4.0 * (lam[:, a, None] * dlam[b]
                                    + lam[:, b, None] * dlam[a])
        return vals, grads
    raise ValueError(f"unsupported polynomial degree {k}")


@functools.lru_cache(maxsize=None)
def _reference_tables(D: int, k: int, order: int) -> dict:
    """Read-only reference-simplex tables at a quadrature rule, shared by all
    elements.  With R the reference gradients (nq, nloc, D): ``grad_table``
    is R as (nloc, nq*D), ``test_table`` R as (nq*D, nloc), ``time_table``
    T[k, (a,b)] = sum_q w_q phi_a(q) R[q,b,k] and ``stiffness_table``
    S[(m,q), (a,b)] = (R[q,a,k] R[q,b,l] + R[q,a,l] R[q,b,k]) / (1 + [k=l])
    over the index pairs m = (k, l) = ``pairs[:, m]``, k <= l: a symmetric
    (D, D) field B per point meets it through its upper triangle only."""
    rule = simplex_rule(D, order)
    vals, R = tabulate_shape(D, k, rule.points)
    nq, nloc, _ = R.shape
    upper, lower = np.triu_indices(D)
    S = np.einsum("qak,qbl->klqab", R, R)
    S = (S + S.transpose(1, 0, 2, 3, 4))[upper, lower]
    S *= np.where(upper == lower, 0.5, 1.0)[:, None, None, None]
    tables = {
        "rule": rule, "values": vals, "ref_grads": R,
        "pairs": np.array([upper, lower]),
        "grad_table": R.transpose(1, 0, 2).reshape(nloc, nq * D),
        "test_table": R.transpose(0, 2, 1).reshape(nq * D, nloc),
        "stiffness_table": S.reshape(len(upper) * nq, nloc * nloc),
        "time_table": np.einsum("q,qa,qbk->kab", rule.weights, vals,
                                R).reshape(D, nloc * nloc),
    }
    for table in tables.values():
        if isinstance(table, np.ndarray):
            table.flags.writeable = False
    return tables


class FeSpace:
    """Lagrange space of degree k with constrained dofs on the lateral and
    bottom boundary.

    Attributes
    ----------
    elem_dofs : (n_elements, n_local) int array
    dof_coords : (n_dofs, D) float array
    constrained : (n_dofs,) bool array
    """

    def __init__(self, mesh: SimplicialMesh, degree: int):
        if degree not in (1, 2):
            raise ValueError(f"unsupported polynomial degree {degree}")
        self.mesh = mesh
        self.degree = degree

        if degree == 1:
            self.n_dofs = mesh.n_vertices
            self.elem_dofs = mesh.elements.copy()
            self.dof_coords = mesh.vertices.copy()
        else:
            edge_pairs, elem_edges = mesh.edge_table
            nv = mesh.n_vertices
            self.n_dofs = nv + len(edge_pairs)
            self.elem_dofs = np.hstack([mesh.elements, nv + elem_edges])
            mids = 0.5 * (mesh.vertices[edge_pairs[:, 0]]
                          + mesh.vertices[edge_pairs[:, 1]])
            self.dof_coords = np.vstack([mesh.vertices, mids])

        # raise MeshError for a hanging facet or an element of zero volume
        mesh.boundary_facets, mesh.geometry
        bottom, _top, lateral = box_faces(self.dof_coords[:, None, :])
        self.constrained = bottom | lateral
        self._batch_cache = {}
        self._load_cache = {}

    @property
    def n_local(self) -> int:
        return self.elem_dofs.shape[1]

    def batch(self, order: int):
        """Tabulated data at a quadrature rule of the given order.

        Returns a dict with the tables of ``_reference_tables``, shared by
        every element (the rule, shape values (nq, nloc), reference gradients
        (nq, nloc, D) and their contraction tables), plus quadrature scale
        w*|det| (ne, nq).  Physical points (``SimplicialMesh.points``) and
        shape gradients are not stored: forms contract with the reference
        tables and map each element with the mesh's inverse Jacobian.
        """
        if order not in self._batch_cache:
            tables = _reference_tables(self.mesh.dim, self.degree, order)
            absdet = self.mesh.geometry[2]
            scale = tables["rule"].weights[None, :] * absdet[:, None]
            self._batch_cache[order] = {**tables, "scale": scale}
        return self._batch_cache[order]

    @functools.cached_property
    def csr_pattern(self) -> dict:
        """Sparsity pattern of the assembled matrices, built once per space.

        A dict of read-only int32 arrays: ``slot`` (n_elements * n_local**2)
        is the position in the CSR data of element matrix entry [e, a, b]
        (row elem_dofs[e, a], column elem_dofs[e, b]); ``indptr`` and
        ``indices`` (sorted within each row) are the pattern; ``fixed`` holds
        the positions in a constrained row or column and ``ident`` the
        constrained diagonal positions among them.  ``slot`` ranks the keys
        row*n + col by one argsort and a cumsum of the sorted keys' "new key"
        mask, with fewer int64 temporaries than ``np.unique``.
        """
        n, ed = self.n_dofs, self.elem_dofs.astype(np.int64)
        keys = (ed[:, :, None] * n + ed[:, None, :]).ravel()
        order = np.argsort(keys)
        keys.sort()
        new = np.concatenate(([True], keys[1:] != keys[:-1]))
        slot = np.empty(len(keys), dtype=np.int32)
        slot[order] = np.cumsum(new, dtype=np.int32) - 1
        rows, cols = np.divmod(keys[new], n)
        fixed = np.flatnonzero(self.constrained[rows] | self.constrained[cols])
        pattern = {"slot": slot, "indices": cols,
                   "indptr": np.searchsorted(rows, np.arange(n + 1)),
                   "fixed": fixed, "ident": fixed[rows[fixed] == cols[fixed]]}
        for key, arr in pattern.items():
            pattern[key] = arr = arr.astype(np.int32)
            arr.flags.writeable = False
        return pattern

    def integrate_grad_x(self, order: int, q: np.ndarray) -> np.ndarray:
        """Per-element quadrature of q . grad_x phi_a, (ne, nloc), for a
        spatial field q (ne, nq, d): q is pulled back to the reference
        element, w*|det| q J_x^-T, then contracted with R in one GEMM."""
        b = self.batch(order)
        inv_jac_t = self.mesh.geometry[1]
        v = (b["scale"][..., None] * q) @ inv_jac_t[:, :q.shape[-1], :]
        return v.reshape(len(v), -1) @ b["test_table"]

    def load_vectors(self, source, order: int) -> np.ndarray:
        """Read-only element load vectors int_e f phi_a, (ne, nloc), built
        once per (order, source): they do not depend on the state."""
        key = (order, source)
        if key not in self._load_cache:
            b = self.batch(order)
            f = self.mesh.source_values(source, order)
            v = (b["scale"] * f) @ b["values"]
            v.flags.writeable = False
            self._load_cache[key] = v
        return self._load_cache[key]

    def default_order(self) -> int:
        """Quadrature order of every residual, Jacobian and estimator form.

        It is 6 for both degrees: the P2 flux power is not a polynomial, and
        the P1 and P2 residuals of the error estimator must integrate the
        load f alike, or its iteration part stops vanishing at a converged
        primal solution."""
        return 6


@dataclass
class FeFunction:
    """Coefficient vector over a finite element space."""

    space: FeSpace
    coeffs: np.ndarray

    def __post_init__(self):
        self.coeffs = np.asarray(self.coeffs, dtype=float)
        if self.coeffs.shape != (self.space.n_dofs,):
            raise ValueError("coefficient length does not match the space")

    def copy(self) -> "FeFunction":
        return FeFunction(self.space, self.coeffs.copy())

    def eval(self, element: int, ref_point) -> tuple[float, np.ndarray, float]:
        """Value, spatial gradient, and time derivative at a reference point."""
        if element < 0 or element >= self.space.mesh.n_elements:
            raise IndexError(f"element index {element} out of range")
        D = self.space.mesh.dim
        vals, ref_grads = tabulate_shape(D, self.space.degree,
                                         np.atleast_2d(ref_point))
        u = self.coeffs[self.space.elem_dofs[element]]
        value = float(vals[0] @ u)
        grad = self.space.mesh.geometry[1][element] @ (ref_grads[0].T @ u)
        return value, grad[:-1], float(grad[-1])

    def at_quadrature(self, order: int, elements=slice(None)):
        """Values (ne, nq) and full gradients (ne, nq, D) at quadrature points
        of every element, or of a slice of the elements."""
        space = self.space
        b = space.batch(order)
        u = self.coeffs[space.elem_dofs[elements]]
        vals = u @ b["values"].T
        ref = (u @ b["grad_table"]).reshape(len(u), -1, space.mesh.dim)
        return vals, ref @ np.swapaxes(space.mesh.geometry[1][elements], 1, 2)


def zero_function(space: FeSpace) -> FeFunction:
    return FeFunction(space, np.zeros(space.n_dofs))


def interpolate(space: FeSpace, g) -> FeFunction:
    """Nodal interpolant of a callable g(points (n, D)) -> (n,)."""
    return FeFunction(space, np.asarray(g(space.dof_coords), dtype=float))


def inject(u: FeFunction, fine: FeSpace) -> FeFunction:
    """Embed a degree-1 function into the degree-2 space on the same mesh.

    Exact: vertex coefficients carry over, edge coefficients are the edge
    midpoint values of the linear function.
    """
    coarse = u.space
    if coarse.mesh is not fine.mesh or coarse.degree != 1 or fine.degree != 2:
        raise ValueError("inject expects degree 1 -> 2 on the same mesh")
    coeffs = np.empty(fine.n_dofs)
    nv = coarse.mesh.n_vertices
    coeffs[:nv] = u.coeffs
    pairs = fine.mesh.edge_table[0]
    coeffs[nv:] = 0.5 * (u.coeffs[pairs[:, 0]] + u.coeffs[pairs[:, 1]])
    return FeFunction(fine, coeffs)


def transfer(u: FeFunction, fine_space: FeSpace) -> FeFunction:
    """Carry a function to a space on a refinement of its mesh, any degree.

    The one transfer path, P1 included: every fine dof node is evaluated
    once, through the coarse ancestor (``parent_leaf``) of the last fine
    element listing it, so the transfer is exact whenever the coarse
    function is polynomial on each ancestor (always the case for bisection
    descendants).  No vertex genealogy is needed.
    """
    coarse = u.space
    fine = fine_space.mesh
    parent = fine.parent_mesh() if fine.parent_mesh is not None else None
    if fine.parent_leaf is None or parent is not coarse.mesh:
        raise ValueError("fine mesh is not a recorded refinement of the "
                         "coarse function's mesh")
    inv_jac_t_c = coarse.mesh.geometry[1]
    owner = np.empty(fine_space.n_dofs, dtype=np.int64)
    owner[fine_space.elem_dofs.ravel()] = np.arange(fine_space.elem_dofs.size)
    anc = fine.parent_leaf[owner // fine_space.n_local]
    x0 = coarse.mesh.vertices[coarse.mesh.elements[anc, 0]]
    ref = np.einsum("nj,nji->ni", fine_space.dof_coords - x0, inv_jac_t_c[anc])
    vals, _ = tabulate_shape(fine.dim, coarse.degree, ref)
    coeffs = np.einsum("na,na->n", vals, u.coeffs[coarse.elem_dofs[anc]])
    return FeFunction(fine_space, coeffs)


def error_norms(u: FeFunction, exact_value,
                exact_grad) -> tuple[float, float]:
    """L2(Q) error and L2-in-time H1-in-space seminorm error, at order 2k + 4.

    Parameters
    ----------
    exact_value : callable, points (n, D) -> (n,)
    exact_grad : callable, points (n, D) -> (n, d) spatial gradient
    """
    space = u.space
    order = 2 * space.degree + 4
    b = space.batch(order)
    l2 = h1 = 0.0
    # in blocks of elements, which bounds the exact solution's temporaries
    for lo in range(0, space.mesh.n_elements, _ELEMENT_BLOCK):
        blk = slice(lo, lo + _ELEMENT_BLOCK)
        vals, grads = u.at_quadrature(order, blk)
        pts = space.mesh.points(order, blk).reshape(-1, space.mesh.dim)
        dv = vals - np.asarray(exact_value(pts)).reshape(vals.shape)
        dg = grads[..., :-1] - np.asarray(exact_grad(pts)).reshape(
            grads[..., :-1].shape)
        scale = b["scale"][blk]
        l2 += np.einsum("eq,eq,eq->", scale, dv, dv)
        h1 += np.einsum("eq,eqi,eqi->", scale, dg, dg)
    return np.sqrt(l2), np.sqrt(h1)
