"""Conforming simplicial meshes of the unit space-time box with bisection refinement.

The space-time cylinder Q = (0,1)^(d+1) is treated as a single (d+1)-dimensional
domain whose last coordinate is time.  Meshes are built from Kuhn triangulations
of a tensor grid and refined by tagged newest-vertex bisection, which keeps the
mesh conforming and shape regular under arbitrary local refinement.  One
bisection closure, computed in rounds over whole arrays, serves marked and
uniform refinement.  Refined meshes record each element's ancestor in the
input mesh (``parent_leaf``), which is all that carrying a function across
refinement needs; no vertex genealogy is kept.

Boundary conditions only need to know which face of the box a point lies on:
:func:`box_faces` reads that from coordinates.  The boundary facets of a mesh
and their tags (bottom t=0, top t=1, lateral) form one array table,
:attr:`SimplicialMesh.boundary_facets`.  Like every table that depends on
the mesh alone (edges, affine maps, source values at quadrature points), it
is built once per mesh and shared by the spaces of both degrees on it.
"""

from __future__ import annotations

import functools
import itertools
import weakref
from enum import IntEnum
from math import factorial

import numpy as np

from .quadrature import simplex_rule

GEOM_TOL = 1e-12
REGION_VOLUME_TOL = 1e-10  # |captured - exact| volume of an aligned region
_ELEMENT_BLOCK = 1024  # elements per block of source_values and error_norms


class MeshError(Exception):
    """Raised for invalid mesh topology, geometry, or refinement input."""


def local_edges(D: int) -> list:
    """Local vertex pairs of a D-simplex's edges, in lexicographic order."""
    return list(itertools.combinations(range(D + 1), 2))


class BoundaryTag(IntEnum):
    LATERAL = 1
    BOTTOM = 2
    TOP = 3


def box_faces(coords: np.ndarray):
    """Which faces of the unit box whole point sets lie on.

    ``coords`` is (n, k, D): n sets of k points.  Returns boolean masks
    (bottom, top, lateral), each (n,): all k points on t = 0, all on t = 1,
    all on one face x_j = 0 or x_j = 1 (j < D-1).
    """
    on0 = np.all(np.abs(coords) <= GEOM_TOL, axis=1)
    on1 = np.all(np.abs(coords - 1.0) <= GEOM_TOL, axis=1)
    return on0[:, -1], on1[:, -1], np.any(on0[:, :-1] | on1[:, :-1], axis=1)


class SimplicialMesh:
    """Conforming simplicial mesh of the unit box in D = d+1 dimensions.

    Attributes
    ----------
    vertices : (n_vertices, D) float array
        Vertex coordinates; the last column is time.
    elements : (n_elements, D+1) int array
        Vertex indices per simplex.  The tuple order encodes the bisection
        state: the refinement edge of element ``e`` runs from local vertex 0
        to local vertex ``tags[e]``.
    tags : (n_elements,) int array
        Bisection tag in {1, ..., D} (Maubach-style vertex ordering).
    generation : (n_elements,) int array
        Number of bisections separating the element from its root ancestor.
    parent_leaf : (n_elements,) int array or None
        For meshes produced by :func:`refine`, the index of the element in the
        input mesh that each element descends from (identity for survivors).
    parent_mesh : weakref.ref or None
        For meshes produced by :func:`refine`, a weak reference to the input
        mesh, so that a refined mesh does not keep its ancestors alive.

    No vertex genealogy is kept: functions move to a refined mesh through
    ``parent_leaf`` alone (:func:`stfem.spaces.transfer`).
    """

    def __init__(self, vertices, elements, tags, generation=None,
                 parent_leaf=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.tags = np.asarray(tags, dtype=np.int64)
        if generation is None:
            generation = np.zeros(self.elements.shape[0], dtype=np.int64)
        self.generation = np.asarray(generation, dtype=np.int64)
        self.parent_leaf = parent_leaf
        self.parent_mesh = None
        self._source_cache = {}

    # -- basic queries ---------------------------------------------------

    @property
    def dim(self) -> int:
        """Space-time dimension D = d + 1."""
        return self.vertices.shape[1]

    @property
    def spatial_dim(self) -> int:
        return self.dim - 1

    @property
    def n_vertices(self) -> int:
        return self.vertices.shape[0]

    @property
    def n_elements(self) -> int:
        return self.elements.shape[0]

    def element_coords(self) -> np.ndarray:
        """Vertex coordinates per element, shape (n_elements, D+1, D)."""
        return self.vertices[self.elements]

    def signed_volumes(self) -> np.ndarray:
        X = self.element_coords()
        edges = X[:, 1:, :] - X[:, :1, :]
        return np.linalg.det(edges) / factorial(self.dim)

    def volumes(self) -> np.ndarray:
        return self.geometry[2] / factorial(self.dim)

    def barycenters(self) -> np.ndarray:
        return self.element_coords().mean(axis=1)

    def elements_oriented(self) -> np.ndarray:
        """Connectivity with a positive signed volume for every element.

        The stored vertex order encodes bisection state and alternates in
        parity; consumers that need a consistent orientation (export, plotting)
        should use this view.
        """
        elems = self.elements.copy()
        neg = self.signed_volumes() < 0
        elems[neg, -2], elems[neg, -1] = elems[neg, -1].copy(), elems[neg, -2].copy()
        return elems

    def refinement_edge(self, e: int) -> tuple[int, int]:
        """Global vertex pair of the refinement edge of element ``e``."""
        a = self.elements[e, 0]
        b = self.elements[e, self.tags[e]]
        return (min(a, b), max(a, b))

    # -- topology --------------------------------------------------------

    @functools.cached_property
    def edge_table(self):
        """Edges as sorted vertex pairs in lexicographic order, (n_edges, 2),
        and each element's edge ids, (n_elements, D(D+1)/2), in local-edge
        order ``local_edges(D)``."""
        a, b = np.array(local_edges(self.dim)).T
        ends = np.sort(np.stack([self.elements[:, a], self.elements[:, b]],
                                axis=-1), axis=-1)
        pairs, ids = np.unique(ends.reshape(-1, 2), axis=0,
                               return_inverse=True)
        return pairs, ids.reshape(self.n_elements, -1)

    @functools.cached_property
    def boundary_facets(self):
        """Boundary facet table ``(facets, owners, tags)``.

        ``facets`` (n_b, D) holds sorted vertex ids, ``owners`` (n_b,) the
        owning element and ``tags`` (n_b,) the :class:`BoundaryTag`, in order
        of first appearance (element by element, then local facet).  Raises
        MeshError for a facet shared by more than two elements and for a
        single-owner facet off the box faces, i.e. a hanging node.
        """
        D = self.dim
        local = np.sort(np.stack(
            [np.delete(self.elements, loc, axis=1) for loc in range(D + 1)],
            axis=1), axis=2).reshape(-1, D)  # row e*(D+1) + loc
        key = np.ravel_multi_index(local.T, (self.n_vertices,) * D)
        _, first, counts = np.unique(key, return_index=True,
                                     return_counts=True)
        if np.any(counts > 2):
            i = counts.argmax()
            raise MeshError(f"facet {local[first[i]].tolist()} shared by "
                            f"{counts[i]} elements")
        rows = np.sort(first[counts == 1])
        facets = local[rows]
        bottom, top, lateral = box_faces(self.vertices[facets])
        off = ~(bottom | top | lateral)
        if off.any():
            raise MeshError(f"hanging facet {facets[off][0].tolist()} "
                            "(single owner, off the box boundary)")
        tags = np.where(bottom, BoundaryTag.BOTTOM, np.where(
            top, BoundaryTag.TOP, BoundaryTag.LATERAL))
        table = (facets, rows // (D + 1), tags)
        for arr in table:
            arr.flags.writeable = False
        return table

    # -- affine maps and quadrature points ---------------------------------

    @functools.cached_property
    def geometry(self):
        """Per-element affine maps (jac, inv_jac_T, absdet), once per mesh."""
        X = self.element_coords()
        jac = np.swapaxes(X[:, 1:, :] - X[:, :1, :], 1, 2)  # columns x_i - x_0
        det = np.linalg.det(jac)
        if not det.all():  # a flat element's map has no inverse
            raise MeshError(f"element {np.argmin(det != 0)} has zero volume")
        inv_jac_t = np.swapaxes(np.linalg.inv(jac), 1, 2)
        return jac, inv_jac_t, np.abs(det)

    def points(self, order: int, elements=slice(None)) -> np.ndarray:
        """Physical quadrature points x0 + J xi, (ne, nq, D), of every
        element or of a slice of them, computed on each call.  J xi is
        summed over j in order, as ``np.einsum`` does, in fewer passes."""
        jac = self.geometry[0][elements][:, None]
        xi = simplex_rule(self.dim, order).points[:, None, :]
        return self.vertices[self.elements[elements, 0], None] + sum(
            jac[..., j] * xi[..., j] for j in range(self.dim))

    def source_values(self, source, order: int) -> np.ndarray:
        """Read-only values of a callable at the quadrature points, (ne, nq).

        Each (order, source) pair is evaluated once per mesh, for every
        space of any degree on it.  The key holds the callable itself rather
        than its id(), so a collected source whose id is reused never
        matches.  The source is called on the points of ``_ELEMENT_BLOCK``
        elements at a time, which bounds its temporaries.
        """
        key = (order, source)
        if key not in self._source_cache:
            ne, D = self.n_elements, self.dim
            f = np.empty((ne, len(simplex_rule(D, order).weights)))
            for lo in range(0, ne, _ELEMENT_BLOCK):
                pts = self.points(order, slice(lo, lo + _ELEMENT_BLOCK))
                f[lo:lo + len(pts)] = np.asarray(
                    source(pts.reshape(-1, D))).reshape(pts.shape[:2])
            f.flags.writeable = False
            self._source_cache[key] = f
        return self._source_cache[key]

    # -- quality and validity ---------------------------------------------

    def check_conforming(self) -> None:
        """Raise MeshError if the mesh has hanging nodes or bad facet sharing.

        Every facet must be shared by at most two elements, a facet with a
        single owner must lie on the boundary of the unit box (otherwise a
        neighbor was refined without matching, i.e. a hanging node exists),
        no element may have zero volume, and the volumes must sum to one.
        """
        self.boundary_facets
        vol = self.volumes().sum()
        if abs(vol - 1.0) > 1e-12 * max(1.0, vol):
            raise MeshError(f"element volumes sum to {vol!r}, expected 1")

    def quality(self) -> np.ndarray:
        """Inradius/circumradius ratio per element."""
        X = self.element_coords()
        D = self.dim
        vol = self.volumes()
        # sum of facet measures
        fsum = np.zeros(self.n_elements)
        for loc in range(D + 1):
            F = np.delete(X, loc, axis=1)
            E = F[:, 1:, :] - F[:, :1, :]
            gram = np.einsum("eik,ejk->eij", E, E)
            fsum += np.sqrt(np.abs(np.linalg.det(gram))) / factorial(D - 1)
        r_in = D * vol / fsum
        # circumcenter from |x - v_i|^2 = |x - v_0|^2
        A = 2.0 * (X[:, 1:, :] - X[:, :1, :])
        rhs = np.einsum("eik,eik->ei", X[:, 1:, :], X[:, 1:, :]) \
            - np.einsum("ek,ek->e", X[:, 0, :], X[:, 0, :])[:, None]
        center = np.linalg.solve(A, rhs[..., None])[..., 0]
        r_circ = np.linalg.norm(center - X[:, 0, :], axis=1)
        return r_in / r_circ


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def build_box_mesh(d: int, n: int, reflected: bool = False) -> SimplicialMesh:
    """Kuhn triangulation of the unit box (0,1)^(d+1) on an n^(d+1) grid.

    Each grid cell is split into D! simplices sharing the cell diagonal.  With
    ``reflected=True`` (n must be even) every cell is triangulated in local
    coordinates oriented away from the domain center; the resulting reflected
    arrangement is also bisection compatible and is used by the region-aligned
    builders.

    Parameters
    ----------
    d : spatial dimension, 1 or 2.
    n : subdivisions per axis, >= 1.
    """
    if d not in (1, 2):
        raise MeshError(f"spatial dimension must be 1 or 2, got {d}")
    if n < 1:
        raise MeshError(f"need n >= 1, got {n}")
    if reflected and n % 2 != 0:
        raise MeshError("reflected grids need an even number of cells per axis")
    D = d + 1
    h = 1.0 / n

    # lattice vertices
    axes = [np.linspace(0.0, 1.0, n + 1)] * D
    grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    vertices = grid.reshape(-1, D)
    strides = [(n + 1) ** (D - 1 - k) for k in range(D)]

    def vid(idx):
        return sum(i * s for i, s in zip(idx, strides))

    elements = []
    tags = []
    for cell in itertools.product(range(n), repeat=D):
        if reflected:
            signs = [1 if cell[k] >= n // 2 else -1 for k in range(D)]
        else:
            signs = [1] * D
        # corner of the cell at local coordinate 0 (nearest the domain center
        # for reflected grids)
        base = [cell[k] if signs[k] > 0 else cell[k] + 1 for k in range(D)]
        for perm in itertools.permutations(range(D)):
            path = [tuple(base)]
            cur = list(base)
            for axis in perm:
                cur[axis] += signs[axis]
                path.append(tuple(cur))
            elements.append([vid(idx) for idx in path])
            tags.append(D)
    return SimplicialMesh(np.asarray(vertices), np.asarray(elements),
                          np.asarray(tags))


# ---------------------------------------------------------------------------
# refinement
# ---------------------------------------------------------------------------

def refine(mesh: SimplicialMesh, marked) -> SimplicialMesh:
    """Bisect the marked elements, closing the mesh until it is conforming.

    ``marked`` holds integer element indices.  The closure runs in array
    rounds.  Each round wants the refinement edges of ``todo`` (at first the
    marked elements).  Elements holding a wanted edge as another edge join
    ``todo``; elements whose refinement edge is wanted and held as no other
    edge are bisected, so no hanging node ever exists.  A round that changes
    nothing, or a child past generation ``max(generation[marked]) + 1``
    (never made from compatible tags), raises MeshError.  Vertex ids are
    kept; each round appends one midpoint per split edge in sorted
    vertex-pair order, which sets the dof order of spaces on the mesh.
    """
    if mesh.n_elements == 0:
        raise MeshError("cannot refine an empty mesh")
    marked = np.asarray(marked if isinstance(marked, np.ndarray)
                        else list(marked))
    if marked.size == 0:
        return mesh
    if not np.issubdtype(marked.dtype, np.integer):
        raise MeshError(f"marked must hold element indices, not {marked.dtype}")
    if marked.min() < 0 or marked.max() >= mesh.n_elements:
        raise MeshError("marked element index out of range")

    D = mesh.dim
    a, b = np.array(local_edges(D)).T
    vertices, elems = mesh.vertices, mesh.elements.copy()
    tags, gen = mesh.tags.copy(), mesh.generation.copy()
    ancestors = np.arange(mesh.n_elements)
    max_gen = gen[marked].max() + 1
    todo = np.bincount(marked, minlength=mesh.n_elements) > 0
    while todo.any():
        ea, eb = elems[:, a], elems[:, b]
        keys = np.minimum(ea, eb) << 32 | np.maximum(ea, eb)
        is_ref = np.arange(a.size) == tags[:, None] - 1  # local edge (0, t)
        ref_key = keys[is_ref]
        wanted = np.unique(ref_key[todo])
        at = np.searchsorted(wanted, keys).clip(max=wanted.size - 1)
        hit = wanted[at] == keys
        held = hit & ~is_ref
        blocked = np.bincount(at[held], minlength=wanted.size) > 0
        bis = np.flatnonzero(hit[is_ref] & ~blocked[at[is_ref]])
        joined = held.any(axis=1) & ~todo
        if np.any(gen[bis] >= max_gen) or not (bis.size or joined.any()):
            raise MeshError("bisection closure does not close; "
                            "incompatible refinement-edge assignment")
        todo[joined] = True
        todo[bis] = False

        split = wanted[~blocked]
        z = len(vertices) + np.searchsorted(split, ref_key[bis])
        vertices = np.concatenate([vertices, 0.5 * (
            vertices[split >> 32] + vertices[split & 0xFFFFFFFF])])
        # children of (v0, ..., vD) with tag t, z the midpoint of v0 vt:
        # (v0, ..., z, ..., vD) in its row, (v1, ..., vt, z, ..., vD) appended
        t = tags[bis]
        cols = np.arange(D + 1)
        second = np.take_along_axis(elems[bis], cols + (cols < t[:, None]), 1)
        second[np.arange(bis.size), t] = z
        elems[bis, t] = z
        tags[bis] = np.where(t > 1, t - 1, D)
        gen[bis] += 1
        elems = np.concatenate([elems, second])
        tags, gen, ancestors, todo = (np.concatenate([x, x[bis]])
                                      for x in (tags, gen, ancestors, todo))

    new = SimplicialMesh(vertices, elems, tags, gen, parent_leaf=ancestors)
    new.parent_mesh = weakref.ref(mesh)
    return new


def uniform_refine(mesh: SimplicialMesh, rounds: int = 1) -> SimplicialMesh:
    """Bisect every element, ``rounds`` times.

    The result's ``parent_leaf`` and ``parent_mesh`` refer to the mesh passed
    in, composing the per-round ancestries.
    """
    root, ancestors = mesh, np.arange(mesh.n_elements)
    for _ in range(rounds):
        mesh = refine(mesh, np.arange(mesh.n_elements))
        ancestors = ancestors[mesh.parent_leaf]
    if mesh is not root:
        mesh.parent_leaf, mesh.parent_mesh = ancestors, weakref.ref(root)
    return mesh


# ---------------------------------------------------------------------------
# goal-region aligned meshes
# ---------------------------------------------------------------------------

class GoalRegion:
    """Convex region of interest with an element-aligned boundary.

    ``distance(points)`` is negative inside, positive outside; ``volume`` is
    the exact measure, used to verify that a mesh captures the region.
    """

    def __init__(self, distance, volume: float, label: str):
        self.distance = distance
        self.volume = volume
        self.label = label

    def contains(self, points: np.ndarray) -> np.ndarray:
        return self.distance(np.asarray(points)) < 0.0


def diamond_region(center=(0.5, 0.5), radius=0.25) -> GoalRegion:
    """2D space-time diamond |x-cx| + |t-ct| <= radius."""
    c = np.asarray(center, dtype=float)
    r = float(radius)

    def dist(pts):
        rel = np.abs(np.atleast_2d(pts) - c)
        return rel.sum(axis=-1) - r

    return GoalRegion(dist, 2.0 * r * r, f"diamond(r={r})")


def octahedron_region(center=(0.5, 0.5, 0.5), half_edge=0.25) -> GoalRegion:
    """Regular octahedron with edge length 2*half_edge, equator in a t-plane.

    The equatorial square has vertices center + (+-half_edge, +-half_edge, 0);
    the apexes sit at center +- (0, 0, half_edge*sqrt(2)).  All twelve edges
    have length 2*half_edge.
    """
    c = np.asarray(center, dtype=float)
    s = float(half_edge)
    hgt = s * np.sqrt(2.0)

    def dist(pts):
        rel = np.abs(np.atleast_2d(pts) - c)
        return np.maximum(rel[:, 0], rel[:, 1]) / s + rel[:, 2] / hgt - 1.0

    volume = (2.0 / 3.0) * (2.0 * s) ** 2 * hgt
    return GoalRegion(dist, volume, f"octahedron(edge={2 * s})")


def build_region_mesh(d: int) -> tuple[SimplicialMesh, GoalRegion]:
    """Initial mesh of the unit box whose elements resolve the goal region.

    A reflected Kuhn grid (n=4) is deformed by moving lattice vertices so that
    the boundary of the region of interest coincides with element facets.  The
    deformation is affine on every element, so bisection refinement keeps the
    region boundary aligned on all descendant meshes.
    """
    mesh = build_box_mesh(d, 4, reflected=True)
    verts = mesh.vertices.copy()
    c = 0.5
    tol = 1e-12

    if d == 1:
        region = diamond_region((c, c), 0.25)
        for i, v in enumerate(verts):
            rel = v - c
            if np.all(np.abs(np.abs(rel) - 0.25) <= tol):
                verts[i] = c + np.sign(rel) * 0.125
    else:
        s = 0.25
        hgt = s * np.sqrt(2.0)
        region = octahedron_region((c, c, c), s)
        for i, v in enumerate(verts):
            rel = v - c
            if np.max(np.abs(rel)) > 0.25 + tol:
                continue
            tau = rel[2]
            if abs(abs(tau) - 0.25) > tol:
                continue  # equatorial layer of the sub-box stays in place
            st = np.sign(tau)
            on1 = abs(abs(rel[0]) - 0.25) <= tol
            on2 = abs(abs(rel[1]) - 0.25) <= tol
            if on1 and on2:
                verts[i] = c + np.array([np.sign(rel[0]) * 0.125,
                                         np.sign(rel[1]) * 0.125, st * hgt / 2])
            elif on1:
                verts[i] = c + np.array([np.sign(rel[0]) / 6.0, 0.0, st * hgt / 3])
            elif on2:
                verts[i] = c + np.array([0.0, np.sign(rel[1]) / 6.0, st * hgt / 3])
            else:
                verts[i] = c + np.array([0.0, 0.0, st * hgt])

    out = SimplicialMesh(verts, mesh.elements.copy(), mesh.tags.copy())
    if np.any(out.volumes() < 1e-14):
        raise MeshError("region-aligned deformation produced a degenerate element")
    out.check_conforming()
    inside = region.contains(out.barycenters())
    captured = out.volumes()[inside].sum()
    if abs(captured - region.volume) > REGION_VOLUME_TOL:
        raise MeshError(
            f"goal region not element-aligned: captured volume {captured!r} "
            f"vs exact {region.volume!r}")
    return out, region
