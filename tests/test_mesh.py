import gc
import weakref

import numpy as np
import pytest

from stfem.mesh import (GEOM_TOL, BoundaryTag, MeshError, SimplicialMesh,
                        build_box_mesh, build_region_mesh, diamond_region,
                        octahedron_region, refine, uniform_refine)
from stfem.spaces import FeSpace


def boundary_dict_loop(mesh):
    """The per-mesh facet dictionary and boundary tagging loop that the array
    table replaced, kept as the reference: (facet, owner, tag) of every
    single-owner facet, in the dictionary's first-appearance order."""
    fmap = {}
    for e, verts in enumerate(mesh.elements.tolist()):
        for loc in range(mesh.dim + 1):
            facet = tuple(sorted(verts[:loc] + verts[loc + 1:]))
            fmap.setdefault(facet, []).append(e)
    boundary = []
    for facet, owners in fmap.items():
        if len(owners) != 1:
            continue
        coords = mesh.vertices[list(facet)]
        t = coords[:, -1]
        if np.all(np.abs(t) <= GEOM_TOL):
            tag = BoundaryTag.BOTTOM
        elif np.all(np.abs(t - 1.0) <= GEOM_TOL):
            tag = BoundaryTag.TOP
        else:
            assert any(np.all(np.abs(x) <= GEOM_TOL)
                       or np.all(np.abs(x - 1.0) <= GEOM_TOL)
                       for x in coords[:, :-1].T), facet
            tag = BoundaryTag.LATERAL
        boundary.append((facet, owners[0], tag))
    return boundary


def refined_mesh(d, kind):
    """A randomly refined box, reflected-box or region-aligned mesh."""
    if kind == "box":
        mesh = build_box_mesh(d, 2)
    elif kind == "reflected":
        mesh = build_box_mesh(d, 2, reflected=True)
    else:
        mesh, _region = build_region_mesh(d)
    rng = np.random.default_rng(17)
    for _ in range(2):
        mesh = refine(mesh, rng.choice(mesh.n_elements,
                                       size=max(1, mesh.n_elements // 4),
                                       replace=False))
    return mesh


def test_box_mesh_counts_d1():
    m = build_box_mesh(1, 1)
    assert m.n_elements == 2
    assert m.n_vertices == 4
    assert m.volumes().sum() == pytest.approx(1.0, abs=1e-15)
    m2 = build_box_mesh(1, 2)
    assert m2.n_elements == 8
    assert m2.n_vertices == 9


def test_box_mesh_counts_d2():
    m = build_box_mesh(2, 1)
    assert m.n_elements == 6
    assert m.n_vertices == 8
    assert m.volumes().sum() == pytest.approx(1.0, rel=1e-13)


def test_box_mesh_rejects_bad_dimension():
    with pytest.raises(MeshError):
        build_box_mesh(3, 1)
    with pytest.raises(MeshError):
        build_box_mesh(1, 0)


def test_boundary_classification_d1():
    _facets, _owners, tags = build_box_mesh(1, 1).boundary_facets()
    counts = {t: np.count_nonzero(tags == t) for t in BoundaryTag}
    assert counts[BoundaryTag.BOTTOM] == 1
    assert counts[BoundaryTag.TOP] == 1
    assert counts[BoundaryTag.LATERAL] == 2
    assert len(tags) == 4

    _facets, _owners, tags2 = build_box_mesh(1, 2).boundary_facets()
    vals = tags2.tolist()
    assert vals.count(BoundaryTag.BOTTOM) == 2
    assert vals.count(BoundaryTag.TOP) == 2
    assert vals.count(BoundaryTag.LATERAL) == 4


def test_interior_facet_tag():
    m = build_box_mesh(1, 1)
    diag = sorted(set(m.elements[0].tolist()) & set(m.elements[1].tolist()))
    assert len(diag) == 2
    facets, _owners, _tags = m.boundary_facets()
    assert diag not in facets.tolist()


def test_refine_marked_bisected_and_conforming():
    m = build_box_mesh(1, 1)
    r = refine(m, [0])
    r.check_conforming()
    assert r.volumes().sum() == pytest.approx(1.0, abs=1e-14)
    assert r.n_elements > m.n_elements


def test_refine_all_two_triangles_gives_four():
    m = build_box_mesh(1, 1)
    r = refine(m, [0, 1])
    assert r.n_elements == 4
    r.check_conforming()


def test_refine_empty_marking_returns_mesh_unchanged():
    m = build_box_mesh(1, 2)
    assert refine(m, []) is m


def test_refine_rejects_bad_marks():
    m = build_box_mesh(1, 1)
    with pytest.raises(MeshError):
        refine(m, [7])


def test_child_volumes_sum_to_parent():
    m = build_box_mesh(1, 2)
    vol0 = m.volumes()
    r = refine(m, [3])
    groups = np.zeros(m.n_elements)
    np.add.at(groups, r.parent_leaf, r.volumes())
    assert np.allclose(groups, vol0, rtol=1e-13)


def test_genealogy_generation_and_vertex_inheritance():
    m = build_box_mesh(1, 2)
    r = refine(m, [0, 5])
    anc = r.parent_leaf
    steps = r.generation - m.generation[anc]
    assert steps.min() >= 0 and steps.max() >= 1
    # each bisection halves the volume
    assert np.allclose(r.volumes(), m.volumes()[anc] / 2.0 ** steps,
                       rtol=1e-13)
    for e, a in enumerate(anc):
        inherited = set(r.elements[e]) & set(m.elements[a])
        # each bisection replaces one vertex by a new edge midpoint
        assert len(inherited) >= m.dim + 1 - steps[e]
        assert all(v >= m.n_vertices for v in set(r.elements[e]) - inherited)
        if steps[e] == 0:  # survivors are kept as they are
            assert np.array_equal(r.elements[e], m.elements[a])


@pytest.mark.parametrize("d,n,rounds", [(1, 2, 10), (2, 1, 7)])
def test_random_refinement_stays_conforming_and_measures_one(d, n, rounds):
    rng = np.random.default_rng(3)
    m = build_box_mesh(d, n)
    for _ in range(rounds):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 4),
                            replace=False)
        m = refine(m, marked)
        m.check_conforming()
    assert m.volumes().sum() == pytest.approx(1.0, rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_shape_regularity_quality_classes_stabilize(d):
    # newest-vertex bisection cycles through finitely many similarity
    # classes with period d+1, so the worst quality recurs and never degrades
    m = build_box_mesh(d, 1)
    qmin = []
    for _ in range(8 if d == 1 else 6):
        m = uniform_refine(m, 1)
        qmin.append(m.quality().min())
    assert min(qmin) > 0.05
    assert min(qmin[-(d + 1):]) == pytest.approx(min(qmin), rel=1e-12)


@pytest.mark.parametrize("d", [1, 2])
def test_reflected_grid_refines_conforming(d):
    rng = np.random.default_rng(11)
    m = build_box_mesh(d, 4 if d == 1 else 2, reflected=True)
    m.check_conforming()
    for _ in range(6):
        marked = rng.choice(m.n_elements, size=max(1, m.n_elements // 3),
                            replace=False)
        m = refine(m, marked)
        m.check_conforming()


def test_vertex_ids_stable_under_refinement():
    m = build_box_mesh(1, 2)
    r = refine(m, [0, 1, 2])
    assert np.array_equal(r.vertices[:m.n_vertices], m.vertices)
    for v in range(m.n_vertices, r.n_vertices):
        a, b = r.vertex_parents[v]
        assert 0 <= a < v and 0 <= b < v
        assert np.allclose(r.vertices[v],
                           0.5 * (r.vertices[a] + r.vertices[b]))


@pytest.mark.parametrize("d", [1, 2])
def test_region_mesh_alignment_preserved_by_refinement(d):
    mesh, region = build_region_mesh(d)
    mesh.check_conforming()
    assert mesh.volumes().min() > 0
    rng = np.random.default_rng(7)
    for _ in range(5):
        inside = region.contains(mesh.barycenters())
        assert mesh.volumes()[inside].sum() == pytest.approx(
            region.volume, abs=1e-12)
        marked = rng.choice(mesh.n_elements, size=max(1, mesh.n_elements // 3),
                            replace=False)
        mesh = refine(mesh, marked)
        mesh.check_conforming()


def test_region_volumes():
    assert diamond_region().volume == pytest.approx(0.125)
    # regular octahedron with edge 0.5: volume = sqrt(2)/3 * edge^3
    assert octahedron_region().volume == pytest.approx(
        np.sqrt(2.0) / 3.0 * 0.5 ** 3, rel=1e-13)


def test_oriented_elements_positive():
    m = uniform_refine(build_box_mesh(1, 2), 2)
    elems = m.elements_oriented()
    X = m.vertices[elems]
    dets = np.linalg.det(X[:, 1:, :] - X[:, :1, :])
    assert np.all(dets > 0)


def test_refinement_edge_is_stored_edge():
    m = build_box_mesh(1, 1)
    a, b = m.refinement_edge(0)
    # initial Kuhn triangles are tagged to bisect the cell diagonal
    pts = m.vertices[[a, b]]
    assert np.allclose(pts.sum(axis=0), [1.0, 1.0])


@pytest.mark.parametrize("d", [1, 2])
def test_boundary_facets_match_loop_and_are_cached(d):
    # facets, first-appearance order, owners and tags of the array table
    # against the dictionary loop, on locally refined meshes
    for kind in ("box", "reflected", "region"):
        mesh = refined_mesh(d, kind)
        expected = boundary_dict_loop(mesh)
        facets, owners, tags = mesh.boundary_facets()
        assert np.array_equal(facets, [f for f, _e, _t in expected]), kind
        assert np.array_equal(owners, [e for _f, e, _t in expected]), kind
        assert np.array_equal(tags, [t for _f, _e, t in expected]), kind
        assert mesh.boundary_facets()[0] is facets
        assert not facets.flags.writeable


@pytest.mark.parametrize("degree", [1, 2])
@pytest.mark.parametrize("kind", ["box", "reflected", "region"])
@pytest.mark.parametrize("d", [1, 2])
def test_constrained_mask_matches_facet_set_rule(d, kind, degree):
    # the old rule: vertices of lateral and bottom boundary facets, and for
    # P2 the edge midpoints on a box face whose end points are both such
    # vertices
    mesh = refined_mesh(d, kind)
    boundary = boundary_dict_loop(mesh)
    V = FeSpace(mesh, degree)
    mask = np.zeros(V.n_dofs, dtype=bool)
    for facet, _e, tag in boundary:
        if tag in (BoundaryTag.LATERAL, BoundaryTag.BOTTOM):
            mask[list(facet)] = True
    if degree == 2:
        nv = mesh.n_vertices
        pairs, _ = mesh.edge_table()
        mids = V.dof_coords[nv:]
        on_face = np.abs(mids[:, -1]) <= 1e-12
        for x in mids[:, :-1].T:
            on_face |= (np.abs(x) <= 1e-12) | (np.abs(x - 1.0) <= 1e-12)
        mask[nv:] = mask[pairs[:, 0]] & mask[pairs[:, 1]] & on_face
    assert np.array_equal(V.constrained, mask)


def hanging_mesh():
    """A 2x2 Kuhn grid with one element removed: its neighbours' facets are
    single-owner facets inside the box."""
    m = build_box_mesh(1, 2)
    keep = np.delete(np.arange(m.n_elements), 3)
    return SimplicialMesh(m.vertices, m.elements[keep], m.tags[keep])


def test_facet_shared_by_three_elements_is_rejected():
    m = build_box_mesh(1, 1)
    dup = SimplicialMesh(m.vertices, np.vstack([m.elements, m.elements[:1]]),
                         np.append(m.tags, m.tags[0]))
    with pytest.raises(MeshError, match="shared by 3 elements"):
        dup.check_conforming()


def test_hanging_facet_is_rejected():
    with pytest.raises(MeshError, match="hanging facet"):
        hanging_mesh().check_conforming()
    with pytest.raises(MeshError, match="hanging facet"):
        FeSpace(hanging_mesh(), 1)


def test_inverted_element_fails_the_volume_check():
    m = build_box_mesh(1, 2)
    centre = int(np.flatnonzero(np.all(m.vertices == 0.5, axis=1))[0])
    verts = m.vertices.copy()
    verts[centre] = [0.95, 0.05]  # outside its vertex star
    moved = SimplicialMesh(verts, m.elements, m.tags)
    assert np.any(np.sign(moved.signed_volumes())
                  != np.sign(m.signed_volumes()))
    moved.boundary_facets()  # topologically still conforming
    with pytest.raises(MeshError, match="volumes sum"):
        moved.check_conforming()


@pytest.mark.parametrize("step", [lambda m: refine(m, [0]),
                                  lambda m: uniform_refine(m, 1)],
                         ids=["refine", "uniform_refine"])
def test_refined_mesh_does_not_keep_its_ancestors_alive(step):
    m0 = build_box_mesh(1, 2)
    level0 = weakref.ref(m0)
    m1 = step(m0)
    m2 = step(m1)
    assert m1.parent_mesh() is m0 and m2.parent_mesh() is m1
    del m0, m1
    gc.collect()
    assert level0() is None
    assert m2.parent_mesh() is None
