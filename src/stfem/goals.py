"""Goal functionals and their derivatives.

Two quantities of interest are provided: the integral of the solution over
the spatial domain at final time, and the p-energy of the spatial gradient
over a region of interest inside the space-time cylinder.
"""

from __future__ import annotations


import numpy as np

from .mesh import BoundaryTag, GoalRegion, SimplicialMesh
from .quadrature import simplex_rule
from .spaces import FeFunction, FeSpace, tabulate_shape


class GoalError(Exception):
    """Raised when a goal functional cannot be evaluated on a mesh."""


class FinalTimeIntegralGoal:
    """J(u) = integral of u(., T) over the spatial domain.

    Evaluated by quadrature over the top-face facets of the space-time mesh;
    linear, so the derivative is state independent.
    """

    kind = "FinalTimeIntegral"

    def __init__(self, facet_order: int = 6):
        self.facet_order = facet_order

    def _top_weights(self, space: FeSpace):
        """Owning element of each top-face facet, (n_top,), and the facet
        integrals of its local shape functions, (n_top, n_local)."""
        # cached on the space itself; caching by id() would go stale when a
        # collected space's id is reused by a later level
        cache = getattr(space, "_final_time_cache", None)
        if cache is None:
            cache = space._final_time_cache = {}
        if self.facet_order in cache:
            return cache[self.facet_order]
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
        rule = simplex_rule(D - 1, self.facet_order)
        phys = F[:, :1] + rule.points @ E  # (n_top, nq, D)
        _jac, inv_jac_t, _det = space.geometry()
        x0 = mesh.vertices[mesh.elements[elems, 0]]
        ref = (phys - x0[:, None]) @ inv_jac_t[elems]
        vals, _ = tabulate_shape(D, space.degree, ref.reshape(-1, D))
        vals = vals.reshape(len(elems), len(rule.weights), -1)
        cache[self.facet_order] = (elems, scale[:, None] * (rule.weights @ vals))
        return cache[self.facet_order]

    def _facet_vector(self, space: FeSpace) -> np.ndarray:
        """Raw dof vector g with g . coeffs = integral over the top face."""
        elems, weights = self._top_weights(space)
        g = np.zeros(space.n_dofs)
        np.add.at(g, space.elem_dofs[elems], weights)
        return g

    def value(self, space: FeSpace, u: FeFunction) -> float:
        return float(self._facet_vector(space) @ u.coeffs)

    def derivative(self, space: FeSpace, u: FeFunction, v: FeFunction) -> float:
        return float(self._facet_vector(space) @ v.coeffs)

    def gradient(self, space: FeSpace, u: FeFunction) -> np.ndarray:
        g = self._facet_vector(space)
        g[space.constrained] = 0.0
        return g

    def derivative_element_values(self, space: FeSpace, u: FeFunction,
                                  weight: np.ndarray) -> np.ndarray:
        """Per-element contributions of J'(u)(w), attributed to the elements
        owning the top facets."""
        elems, weights = self._top_weights(space)
        out = np.zeros(space.mesh.n_elements)
        np.add.at(out, elems,
                  np.sum(weights * weight[space.elem_dofs[elems]], axis=1))
        return out


class RegionEnergyGoal:
    """J(u) = integral over the region of interest of |grad_x u|^p.

    The region boundary must be resolved by the mesh (every element entirely
    inside or outside); this is verified against the exact region volume.
    """

    kind = "PEnergyRegion"

    def __init__(self, region: GoalRegion, p: float, mesh: SimplicialMesh = None,
                 tol: float = 1e-10):
        self.region = region
        self.p = float(p)
        self.tol = tol
        if mesh is not None:
            self.inside_elements(mesh)

    def inside_elements(self, mesh: SimplicialMesh) -> np.ndarray:
        """Boolean mask of elements inside the region; rejects unresolved
        boundaries by comparing the captured volume with the exact one."""
        cache = getattr(mesh, "_region_inside_cache", None)
        if cache is None:
            cache = mesh._region_inside_cache = {}
        key = self.region.label
        if key not in cache:
            inside = self.region.contains(mesh.barycenters())
            captured = mesh.volumes()[inside].sum()
            if abs(captured - self.region.volume) > self.tol:
                raise GoalError(
                    f"region {self.region.label} is not element-aligned: "
                    f"captured volume {captured!r} vs exact {self.region.volume!r}")
            cache[key] = inside
        return cache[key]

    def _grad_state(self, space: FeSpace, u: FeFunction, order: int):
        b = space.batch(order)
        _vals, grads = u.at_quadrature(order)
        gx = grads[..., :-1]
        inside = self.inside_elements(space.mesh)
        return b, gx, inside

    def value(self, space: FeSpace, u: FeFunction, order: int = None) -> float:
        if order is None:
            order = 2 * space.degree + 4
        b, gx, inside = self._grad_state(space, u, order)
        dens = np.einsum("eqi,eqi->eq", gx, gx) ** (self.p / 2.0)
        return float(np.sum(b["scale"][inside] * dens[inside]))

    def _weighted_gradient(self, space: FeSpace, u: FeFunction, order: int):
        """p |grad u|^(p-2) grad u at quadrature points, zero outside."""
        _b, gx, inside = self._grad_state(space, u, order)
        norm2 = np.einsum("eqi,eqi->eq", gx, gx)
        dens = self.p * norm2 ** ((self.p - 2.0) / 2.0)
        dens = np.where(inside[:, None], dens, 0.0)
        return dens[..., None] * gx

    def gradient(self, space: FeSpace, u: FeFunction,
                 order: int = None) -> np.ndarray:
        if order is None:
            order = 2 * space.degree + 4
        wgrad = self._weighted_gradient(space, u, order)
        g = np.zeros(space.n_dofs)
        np.add.at(g, space.elem_dofs, space.integrate_grad_x(order, wgrad))
        g[space.constrained] = 0.0
        return g

    def derivative(self, space: FeSpace, u: FeFunction, v: FeFunction,
                   order: int = None) -> float:
        return float(self.derivative_element_values(
            space, u, v.coeffs, order).sum())

    def derivative_element_values(self, space: FeSpace, u: FeFunction,
                                  weight: np.ndarray,
                                  order: int = None) -> np.ndarray:
        """Per-element contributions of J'(u)(w): the element vectors that
        ``gradient`` assembles, contracted with w's element coefficients."""
        if order is None:
            order = 2 * space.degree + 4
        v = space.integrate_grad_x(order,
                                   self._weighted_gradient(space, u, order))
        return np.einsum("ea,ea->e", v, weight[space.elem_dofs])


def eval_goal(goal, u: FeFunction) -> float:
    return goal.value(u.space, u)


def goal_derivative(goal, u: FeFunction, v: FeFunction) -> float:
    if u.space is not v.space:
        raise ValueError("u and v must live on the same space")
    return goal.derivative(u.space, u, v)
