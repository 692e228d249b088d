import numpy as np
import pytest

from stfem.mesh import (BoundaryTag, MeshError, build_box_mesh,
                        build_region_mesh, classify_boundary, diamond_region,
                        octahedron_region, refine, uniform_refine)


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
    tags = classify_boundary(build_box_mesh(1, 1))
    counts = {t: 0 for t in BoundaryTag}
    for t in tags.values():
        counts[t] += 1
    assert counts[BoundaryTag.BOTTOM] == 1
    assert counts[BoundaryTag.TOP] == 1
    assert counts[BoundaryTag.LATERAL] == 2
    assert len(tags) == 4

    tags2 = classify_boundary(build_box_mesh(1, 2))
    vals = list(tags2.values())
    assert vals.count(BoundaryTag.BOTTOM) == 2
    assert vals.count(BoundaryTag.TOP) == 2
    assert vals.count(BoundaryTag.LATERAL) == 4


def test_interior_facet_tag():
    m = build_box_mesh(1, 1)
    diag = tuple(sorted(set(m.elements[0]) & set(m.elements[1])))
    assert len(diag) == 2
    assert m.facet_tag(diag) == BoundaryTag.INTERIOR


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
    hist = r._history
    n_in = hist["n_input"]
    for e in range(n_in, len(hist["elements"])):
        p = hist["parent"][e]
        assert hist["generation"][e] == hist["generation"][p] + 1
        shared = set(hist["elements"][e]) & set(hist["elements"][p])
        assert len(shared) == m.dim  # D of the D+1 vertices come from the parent


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
def test_facet_map_matches_loop_and_is_cached(d):
    m = build_box_mesh(d, 2)
    m = refine(m, np.arange(0, m.n_elements, 3))
    expected = {}
    for e, verts in enumerate(m.elements):
        for loc in range(m.dim + 1):
            facet = tuple(sorted(int(v) for v in np.delete(verts, loc)))
            expected.setdefault(facet, []).append((e, loc))
    fmap = m.facet_map()
    assert fmap == expected
    assert list(fmap) == list(expected)  # insertion order, element by element
    assert m.facet_map() is fmap
