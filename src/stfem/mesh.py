"""Conforming simplicial meshes of the unit space-time box with bisection refinement.

The space-time cylinder Q = (0,1)^(d+1) is treated as a single (d+1)-dimensional
domain whose last coordinate is time.  Meshes are built from Kuhn triangulations
of a tensor grid and refined by tagged newest-vertex bisection, which keeps the
mesh conforming (no hanging nodes) and shape regular under arbitrary local
refinement.

Boundary conditions only need to know which face of the box a point lies on:
:func:`box_faces` reads that from coordinates.  The boundary facets of a mesh
and their tags (bottom t=0, top t=1, lateral) form one array table,
:meth:`SimplicialMesh.boundary_facets`, built once per mesh.
"""

from __future__ import annotations

import itertools
import weakref
from collections import defaultdict
from enum import IntEnum
from math import factorial

import numpy as np

GEOM_TOL = 1e-12


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
    vertex_parents : (n_vertices, 2) int array
        For vertices created as edge midpoints, the ids of the edge endpoints;
        (-1, -1) for vertices of the initial grid.  Vertex ids are stable
        across refinement, so functions transfer exactly to refined meshes.
    parent_leaf : (n_elements,) int array or None
        For meshes produced by :func:`refine`, the index of the element in the
        input mesh that each element descends from (identity for survivors).
    parent_mesh : weakref.ref or None
        For meshes produced by :func:`refine`, a weak reference to the input
        mesh, so that a refined mesh does not keep its ancestors alive.
    """

    def __init__(self, vertices, elements, tags, generation=None,
                 vertex_parents=None, parent_leaf=None):
        self.vertices = np.asarray(vertices, dtype=float)
        self.elements = np.asarray(elements, dtype=np.int64)
        self.tags = np.asarray(tags, dtype=np.int64)
        ne = self.elements.shape[0]
        nv = self.vertices.shape[0]
        if generation is None:
            generation = np.zeros(ne, dtype=np.int64)
        self.generation = np.asarray(generation, dtype=np.int64)
        if vertex_parents is None:
            vertex_parents = np.full((nv, 2), -1, dtype=np.int64)
        self.vertex_parents = np.asarray(vertex_parents, dtype=np.int64)
        self.parent_leaf = parent_leaf
        self.parent_mesh = None
        self._boundary = None
        self._edge_table = None

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
        return np.abs(self.signed_volumes())

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

    def edge_table(self):
        """Edges as sorted vertex pairs in lexicographic order, (n_edges, 2),
        and each element's edge ids, (n_elements, D(D+1)/2), in local-edge
        order ``local_edges(D)``."""
        if self._edge_table is None:
            a, b = np.array(local_edges(self.dim)).T
            ends = np.sort(np.stack([self.elements[:, a], self.elements[:, b]],
                                    axis=-1), axis=-1)
            pairs, ids = np.unique(ends.reshape(-1, 2), axis=0,
                                   return_inverse=True)
            self._edge_table = (pairs, ids.reshape(self.n_elements, -1))
        return self._edge_table

    def boundary_facets(self):
        """Boundary facet table ``(facets, owners, tags)``, built once.

        ``facets`` (n_b, D) holds sorted vertex ids, ``owners`` (n_b,) the
        owning element and ``tags`` (n_b,) the :class:`BoundaryTag`, in order
        of first appearance (element by element, then local facet).  Raises
        MeshError for a facet shared by more than two elements and for a
        single-owner facet off the box faces, i.e. a hanging node.
        """
        if self._boundary is None:
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
            self._boundary = (facets, rows // (D + 1), tags)
            for table in self._boundary:
                table.flags.writeable = False
        return self._boundary

    # -- quality and validity ---------------------------------------------

    def check_conforming(self) -> None:
        """Raise MeshError if the mesh has hanging nodes or bad facet sharing.

        Every facet must be shared by at most two elements, a facet with a
        single owner must lie on the boundary of the unit box (otherwise a
        neighbor was refined without matching, i.e. a hanging node exists),
        and the element volumes must sum to one.
        """
        self.boundary_facets()
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

    Every marked element is bisected at least once; recursive closure
    bisections of neighbors keep the mesh free of hanging nodes.  Returns a
    new mesh; the input mesh is not modified.  Vertex ids are preserved, new
    midpoint vertices are appended with their parent edge recorded.
    """
    if mesh.n_elements == 0:
        raise MeshError("cannot refine an empty mesh")
    marked = np.unique(np.asarray(list(marked), dtype=np.int64))
    if marked.size and (marked.min() < 0 or marked.max() >= mesh.n_elements):
        raise MeshError("marked element index out of range")
    if marked.size == 0:
        return mesh

    D = mesh.dim
    ne0 = mesh.n_elements
    coords = [mesh.vertices[i] for i in range(mesh.n_vertices)]
    vparents = [tuple(vp) for vp in mesh.vertex_parents]

    elems = [tuple(int(v) for v in row) for row in mesh.elements]
    tags = [int(t) for t in mesh.tags]
    gen = [int(g) for g in mesh.generation]
    parent = [-1] * ne0
    alive = [True] * ne0

    edge_elems = defaultdict(set)
    for e, vs in enumerate(elems):
        for a, b in itertools.combinations(vs, 2):
            edge_elems[(min(a, b), max(a, b))].add(e)

    midpoint = {}

    def refedge(e):
        vs = elems[e]
        a, b = vs[0], vs[tags[e]]
        return (min(a, b), max(a, b))

    def get_midpoint(key):
        z = midpoint.get(key)
        if z is None:
            z = len(coords)
            coords.append(0.5 * (coords[key[0]] + coords[key[1]]))
            vparents.append(key)
            midpoint[key] = z
        return z

    def bisect(e):
        vs = elems[e]
        t = tags[e]
        z = get_midpoint((min(vs[0], vs[t]), max(vs[0], vs[t])))
        newtag = t - 1 if t > 1 else D
        c1 = vs[:t] + (z,) + vs[t + 1:]
        c2 = vs[1:t + 1] + (z,) + vs[t + 1:]
        for child in (c1, c2):
            cid = len(elems)
            elems.append(child)
            tags.append(newtag)
            gen.append(gen[e] + 1)
            parent.append(e)
            alive.append(True)
            for a, b in itertools.combinations(child, 2):
                edge_elems[(min(a, b), max(a, b))].add(cid)
        alive[e] = False

    budget = 200 * (ne0 + marked.size) + 100000

    def ensure_bisected(e0):
        nonlocal budget
        stack = [e0]
        while stack:
            budget -= 1
            if budget < 0:
                raise MeshError("bisection closure did not terminate; "
                                "incompatible refinement-edge assignment")
            e = stack[-1]
            if not alive[e]:
                stack.pop()
                continue
            edge = refedge(e)
            sharers = [s for s in edge_elems[edge] if alive[s]]
            bad = [s for s in sharers if refedge(s) != edge]
            if bad:
                stack.extend(bad)
            else:
                for s in sharers:
                    bisect(s)
                stack.pop()

    for m in marked:
        if alive[m]:
            ensure_bisected(int(m))

    keep = [e for e in range(len(elems)) if alive[e]]
    ancestors = np.empty(len(keep), dtype=np.int64)
    for i, e in enumerate(keep):
        a = e
        while a >= ne0:
            a = parent[a]
        ancestors[i] = a

    new = SimplicialMesh(
        np.asarray(coords),
        np.asarray([elems[e] for e in keep]),
        np.asarray([tags[e] for e in keep]),
        generation=np.asarray([gen[e] for e in keep]),
        vertex_parents=np.asarray(vparents),
        parent_leaf=ancestors,
    )
    new.parent_mesh = weakref.ref(mesh)
    return new


def uniform_refine(mesh: SimplicialMesh, rounds: int = 1) -> SimplicialMesh:
    """Bisect every element, ``rounds`` times.

    The result's ``parent_leaf`` and ``parent_mesh`` refer to the mesh passed
    in, composing the per-round ancestries.
    """
    root = mesh
    ancestors = None
    for _ in range(rounds):
        mesh = refine(mesh, np.arange(mesh.n_elements))
        ancestors = mesh.parent_leaf if ancestors is None \
            else ancestors[mesh.parent_leaf]
    if ancestors is not None:
        mesh.parent_leaf = ancestors
        mesh.parent_mesh = weakref.ref(root)
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
    if abs(captured - region.volume) > 1e-10:
        raise MeshError(
            f"goal region not element-aligned: captured volume {captured!r} "
            f"vs exact {region.volume!r}")
    return out, region
