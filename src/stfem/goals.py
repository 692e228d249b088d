"""Goal functionals and their derivatives.

A goal supplies two things on a space: its ``value`` J(u), computed
directly, and its ``element_vectors``, the integrals of J'(u) phi_a over each
element.  :class:`Goal` derives everything else from the element vectors:
the assembled ``gradient`` that drives the adjoint solve, the per-element
contributions J'(u)(w) that the estimator localizes, and their sum.  A
combined goal is then a weighted sum of both parts.

Two quantities of interest are provided: the integral of the solution over
the spatial domain at final time, and the p-energy of the spatial gradient
over a region of interest inside the space-time cylinder.
"""

from __future__ import annotations

import numpy as np

from .mesh import REGION_VOLUME_TOL, BoundaryTag, GoalRegion, SimplicialMesh
from .quadrature import simplex_rule
from .spaces import FeFunction, FeSpace, tabulate_shape

# quadrature order on the top-face facets; exact for the shape functions of
# every supported degree
FACET_ORDER = 6


class GoalError(Exception):
    """Raised when a goal functional cannot be evaluated on a mesh."""


class Goal:
    """A goal functional J.  Subclasses supply ``value(space, u)`` and
    ``element_vectors(space, u)``, (n_elements, n_local); the derivative
    family below is built from the element vectors alone."""

    def gradient(self, space: FeSpace, u: FeFunction) -> np.ndarray:
        """Assembled dof vector of J'(u), zero on constrained dofs."""
        g = np.bincount(space.elem_dofs.ravel(),
                        weights=self.element_vectors(space, u).ravel(),
                        minlength=space.n_dofs)
        g[space.constrained] = 0.0
        return g

    def derivative_element_values(self, space: FeSpace, u: FeFunction,
                                  weight: np.ndarray) -> np.ndarray:
        """Per-element contributions of J'(u)(w) for w's dof vector."""
        return np.einsum("ea,ea->e", self.element_vectors(space, u),
                         weight[space.elem_dofs])

    def derivative(self, space: FeSpace, u: FeFunction, v: FeFunction) -> float:
        return float(self.derivative_element_values(space, u, v.coeffs).sum())


class FinalTimeIntegralGoal(Goal):
    """J(u) = integral of u(., T) over the spatial domain.

    Evaluated by quadrature over the top-face facets of the space-time mesh;
    linear, so the element vectors are state independent.
    """

    def value(self, space: FeSpace, u: FeFunction) -> float:
        return float(np.sum(self.element_vectors(space, u)
                            * u.coeffs[space.elem_dofs]))

    def element_vectors(self, space: FeSpace, u: FeFunction) -> np.ndarray:
        """Read-only facet integrals of each element's shape functions over
        its top-face facets, zero for elements off the top face."""
        # cached on the space itself; caching by id() would go stale when a
        # collected space's id is reused by a later level
        table = getattr(space, "_final_time_table", None)
        if table is not None:
            return table
        mesh = space.mesh
        D = mesh.dim
        facets, owners, tags = mesh.boundary_facets()
        top = tags == BoundaryTag.TOP
        if not top.any():
            raise GoalError("mesh has no top-face facets")
        elems = owners[top]
        F = mesh.vertices[facets[top]]
        E = F[:, 1:] - F[:, :1]  # (n_top, D-1, D)
        scale = np.sqrt(np.abs(np.linalg.det(E @ np.swapaxes(E, 1, 2))))
        rule = simplex_rule(D - 1, FACET_ORDER)
        phys = F[:, :1] + rule.points @ E  # (n_top, nq, D)
        _jac, inv_jac_t, _det = space.geometry()
        x0 = mesh.vertices[mesh.elements[elems, 0]]
        ref = (phys - x0[:, None]) @ inv_jac_t[elems]
        vals, _ = tabulate_shape(D, space.degree, ref.reshape(-1, D))
        vals = vals.reshape(len(elems), len(rule.weights), -1)
        table = np.zeros((mesh.n_elements, space.n_local))
        np.add.at(table, elems, scale[:, None] * (rule.weights @ vals))
        table.flags.writeable = False
        space._final_time_table = table
        return table


class RegionEnergyGoal(Goal):
    """J(u) = integral over the region of interest of |grad_x u|^p.

    The region boundary must be resolved by the mesh (every element entirely
    inside or outside); this is verified against the exact region volume.
    """

    def __init__(self, region: GoalRegion, p: float, mesh: SimplicialMesh = None):
        self.region = region
        self.p = float(p)
        if mesh is not None:
            self.inside_elements(mesh)

    def inside_elements(self, mesh: SimplicialMesh) -> np.ndarray:
        """Boolean mask of elements inside the region; rejects unresolved
        boundaries by comparing the captured volume with the exact one."""
        cache = getattr(mesh, "_region_inside_cache", None)
        if cache is None:
            cache = mesh._region_inside_cache = {}
        key = self.region  # not its label, which omits the centre
        if key not in cache:
            inside = self.region.contains(mesh.barycenters())
            captured = mesh.volumes()[inside].sum()
            if abs(captured - self.region.volume) > REGION_VOLUME_TOL:
                raise GoalError(
                    f"region {self.region.label} is not element-aligned: "
                    f"captured volume {captured!r} vs exact {self.region.volume!r}")
            cache[key] = inside
        return cache[key]

    def _grad_x(self, space: FeSpace, u: FeFunction):
        """Quadrature order, spatial gradient of u at its points (ne, nq, d),
        its squared norm (ne, nq) and the inside mask (ne,)."""
        # order 2k + 4 integrates the p = 4 density and its derivative
        # exactly for every supported degree k
        order = 2 * space.degree + 4
        gx = u.at_quadrature(order)[1][..., :-1]
        return (order, gx, np.einsum("eqi,eqi->eq", gx, gx),
                self.inside_elements(space.mesh))

    def value(self, space: FeSpace, u: FeFunction) -> float:
        order, _gx, norm2, inside = self._grad_x(space, u)
        dens = norm2 ** (self.p / 2.0)
        return float(np.sum(space.batch(order)["scale"][inside]
                            * dens[inside]))

    def element_vectors(self, space: FeSpace, u: FeFunction) -> np.ndarray:
        """Integrals of p |grad_x u|^(p-2) grad_x u . grad_x phi_a over each
        element inside the region, zero outside."""
        order, gx, norm2, inside = self._grad_x(space, u)
        dens = self.p * norm2 ** ((self.p - 2.0) / 2.0)
        dens = np.where(inside[:, None], dens, 0.0)
        return space.integrate_grad_x(order, dens[..., None] * gx)


def eval_goal(goal, u: FeFunction) -> float:
    return goal.value(u.space, u)


def goal_derivative(goal, u: FeFunction, v: FeFunction) -> float:
    if u.space is not v.space:
        raise ValueError("u and v must live on the same space")
    return goal.derivative(u.space, u, v)
