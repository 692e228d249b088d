"""Conforming simplicial meshes of the unit space-time box with bisection refinement.

The space-time cylinder Q = (0,1)^(d+1) is treated as a single (d+1)-dimensional
domain whose last coordinate is time.  Meshes are built from Kuhn triangulations
of a tensor grid and refined by tagged newest-vertex bisection, which keeps the
mesh conforming (no hanging nodes) and shape regular under arbitrary local
refinement.
"""

from __future__ import annotations

import itertools
from collections import defaultdict
from math import factorial
from enum import Enum

import numpy as np

GEOM_TOL = 1e-12


class MeshError(Exception):
    """Raised for invalid mesh topology, geometry, or refinement input."""


class BoundaryTag(Enum):
    INTERIOR = 0
    LATERAL = 1
    BOTTOM = 2
    TOP = 3


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
        self._facet_map = None
        self._facet_tags = None
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

    def facet_map(self) -> dict:
        """Map sorted vertex tuple of each facet -> list of (element, local facet).

        Built once per mesh and shared by every caller; do not modify it.
        """
        if self._facet_map is None:
            D = self.dim
            facets = np.sort(np.stack(
                [np.delete(self.elements, loc, axis=1) for loc in range(D + 1)],
                axis=1), axis=2)  # (n_elements, D+1, D)
            fmap = defaultdict(list)
            for e, rows in enumerate(facets.tolist()):
                for loc, facet in enumerate(rows):
                    fmap[tuple(facet)].append((e, loc))
            self._facet_map = dict(fmap)
        return self._facet_map

    def edge_table(self):
        """Sorted vertex pair -> edge id, plus (n_edges, 2) array of pairs."""
        if self._edge_table is None:
            pairs = set()
            for elem in self.elements:
                for a, b in itertools.combinations(elem, 2):
                    pairs.add((min(a, b), max(a, b)))
            pairs = sorted(pairs)
            index = {pq: i for i, pq in enumerate(pairs)}
            self._edge_table = (index, np.array(pairs, dtype=np.int64))
        return self._edge_table

    def facet_tags(self) -> dict:
        """Boundary facet tags; interior facets are not listed (see facet_tag)."""
        if self._facet_tags is None:
            self._facet_tags = classify_boundary(self)
        return self._facet_tags

    def facet_tag(self, facet_vertices) -> BoundaryTag:
        key = tuple(sorted(int(v) for v in facet_vertices))
        return self.facet_tags().get(key, BoundaryTag.INTERIOR)

    def boundary_facets(self, tag: BoundaryTag = None):
        """List of (facet vertex tuple, owning element) for boundary facets."""
        fmap = self.facet_map()
        tags = self.facet_tags()
        out = []
        for facet, owners in fmap.items():
            if len(owners) == 1:
                t = tags[facet]
                if tag is None or t == tag:
                    out.append((facet, owners[0][0], t))
        return out

    # -- quality and validity ---------------------------------------------

    def check_conforming(self) -> None:
        """Raise MeshError if the mesh has hanging nodes or bad facet sharing.

        Every facet must be shared by at most two elements, and a facet with a
        single owner must lie on the boundary of the unit box (otherwise a
        neighbor was refined without matching, i.e. a hanging node exists).
        """
        fmap = self.facet_map()
        for facet, owners in fmap.items():
            if len(owners) > 2:
                raise MeshError(f"facet {facet} shared by {len(owners)} elements")
            if len(owners) == 1 and not self._facet_on_box_boundary(facet):
                raise MeshError(f"hanging facet {facet} (single owner, interior)")
        vol = self.volumes().sum()
        if abs(vol - 1.0) > 1e-12 * max(1.0, vol):
            raise MeshError(f"element volumes sum to {vol!r}, expected 1")

    def _facet_on_box_boundary(self, facet) -> bool:
        coords = self.vertices[list(facet)]
        for j in range(self.dim):
            if np.all(np.abs(coords[:, j]) <= GEOM_TOL):
                return True
            if np.all(np.abs(coords[:, j] - 1.0) <= GEOM_TOL):
                return True
        return False

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


def classify_boundary(mesh: SimplicialMesh) -> dict:
    """Tag every boundary facet as BOTTOM (t=0), TOP (t=1), or LATERAL.

    Raises MeshError for boundary facets that do not lie on a face of the
    unit box.
    """
    D = mesh.dim
    fmap = mesh.facet_map()
    tags = {}
    for facet, owners in fmap.items():
        if len(owners) != 1:
            continue
        coords = mesh.vertices[list(facet)]
        t = coords[:, -1]
        if np.all(np.abs(t) <= GEOM_TOL):
            tags[facet] = BoundaryTag.BOTTOM
        elif np.all(np.abs(t - 1.0) <= GEOM_TOL):
            tags[facet] = BoundaryTag.TOP
        else:
            lateral = False
            for j in range(D - 1):
                x = coords[:, j]
                if np.all(np.abs(x) <= GEOM_TOL) or np.all(np.abs(x - 1.0) <= GEOM_TOL):
                    lateral = True
                    break
            if not lateral:
                raise MeshError(f"boundary facet {facet} not on the unit-box boundary")
            tags[facet] = BoundaryTag.LATERAL
    return tags


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
    new.parent_mesh = mesh
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
        mesh.parent_mesh = root
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
