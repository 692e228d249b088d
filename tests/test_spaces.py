import itertools
import tracemalloc

import numpy as np
import pytest

from stfem import spaces
from stfem.mesh import (build_box_mesh, build_region_mesh, refine,
                        uniform_refine)
from stfem.problems import smooth_problem, smooth_product_solution
from stfem.spaces import (FeFunction, FeSpace, error_norms, inject,
                          interpolate, transfer, zero_function)


def test_dof_counts_and_constraints_two_triangles():
    m = build_box_mesh(1, 1)
    V = FeSpace(m, 1)
    assert V.n_dofs == 4
    # all four corners lie on the lateral sides or the bottom
    assert V.constrained.sum() == 4
    assert (~V.constrained).sum() == 0


def test_free_dofs_n2():
    V = FeSpace(build_box_mesh(1, 2), 1)
    assert V.n_dofs == 9
    free_nodes = V.dof_coords[~V.constrained]
    assert len(free_nodes) == 2
    # center node and top-midpoint node; the top face is unconstrained
    assert sorted(map(tuple, free_nodes.tolist())) == [(0.5, 0.5), (0.5, 1.0)]


def test_p2_dof_count():
    V = FeSpace(build_box_mesh(1, 1), 2)
    assert V.n_dofs == 9  # 4 vertices + 5 edges


def test_edge_table_and_p2_dofs_match_edge_loop():
    mesh = build_box_mesh(2, 2)
    mesh = refine(mesh, np.arange(0, mesh.n_elements, 3))
    pairs = sorted({(min(a, b), max(a, b))
                    for elem in mesh.elements.tolist()
                    for a, b in itertools.combinations(elem, 2)})
    index = {pq: i for i, pq in enumerate(pairs)}
    local = list(itertools.combinations(range(mesh.dim + 1), 2))
    ids = [[index[tuple(sorted((elem[a], elem[b])))] for a, b in local]
           for elem in mesh.elements.tolist()]
    got_pairs, got_ids = mesh.edge_table
    assert np.array_equal(got_pairs, pairs)
    assert np.array_equal(got_ids, ids)
    assert mesh.edge_table[0] is got_pairs
    V = FeSpace(mesh, 2)
    nv = mesh.n_vertices
    assert np.array_equal(V.elem_dofs, np.hstack([mesh.elements,
                                                  nv + np.array(ids)]))
    assert V.n_dofs == nv + len(pairs)


def test_p2_constrained_midpoints():
    V = FeSpace(build_box_mesh(1, 1), 2)
    for x, ok in zip(V.dof_coords, V.constrained):
        on_wall = x[0] in (0.0, 1.0) or x[1] == 0.0
        assert bool(ok) == bool(on_wall)


def test_unsupported_degree():
    with pytest.raises(ValueError):
        FeSpace(build_box_mesh(1, 1), 3)


def test_interpolate_zero_and_affine_reproduction():
    V = FeSpace(build_box_mesh(1, 2), 1)
    z = interpolate(V, lambda p: np.zeros(len(p)))
    assert np.all(z.coeffs == 0.0)

    g = lambda p: 1.0 + 2.0 * p[:, 0] - 3.0 * p[:, 1]
    u = interpolate(V, g)
    rng = np.random.default_rng(0)
    for e in rng.integers(0, V.mesh.n_elements, size=5):
        xi = rng.dirichlet([1, 1, 1])[:2]
        val, gx, dt = u.eval(int(e), xi)
        assert gx[0] == pytest.approx(2.0, abs=1e-12)
        assert dt == pytest.approx(-3.0, abs=1e-12)


def test_p2_reproduces_quadratics():
    V = FeSpace(build_box_mesh(1, 2), 2)
    g = lambda p: 0.5 - p[:, 0] ** 2 + 2.0 * p[:, 0] * p[:, 1] + p[:, 1] ** 2
    u = interpolate(V, g)
    mesh = V.mesh
    rng = np.random.default_rng(1)
    for e in rng.integers(0, mesh.n_elements, size=5):
        lam = rng.dirichlet([1, 1, 1])
        xi = lam[:2]
        x0 = mesh.vertices[mesh.elements[int(e), 0]]
        J = (mesh.vertices[mesh.elements[int(e)]][1:] - x0).T
        phys = x0 + J @ xi
        val, _, _ = u.eval(int(e), xi)
        assert val == pytest.approx(g(phys[None])[0], abs=1e-12)


def test_eval_simple_fields():
    V = FeSpace(build_box_mesh(1, 1), 1)
    t_field = FeFunction(V, V.dof_coords[:, 1].copy())
    val, gx, dt = t_field.eval(0, [0.3, 0.3])
    assert dt == pytest.approx(1.0)
    assert abs(gx[0]) < 1e-13
    x_field = FeFunction(V, V.dof_coords[:, 0].copy())
    val, gx, dt = x_field.eval(1, [0.2, 0.5])
    assert gx[0] == pytest.approx(1.0)
    assert abs(dt) < 1e-13


def test_eval_element_out_of_range():
    V = FeSpace(build_box_mesh(1, 1), 1)
    u = zero_function(V)
    with pytest.raises(IndexError):
        u.eval(5, [0.1, 0.1])


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_partition_of_unity(d, k):
    V = FeSpace(build_box_mesh(d, 1), k)
    b = V.batch(4)
    assert np.abs(b["values"].sum(axis=1) - 1.0).max() < 1e-12


def physical_gradients(V, order):
    """Reference: per-element physical shape gradients (ne, nq, nloc, D)."""
    _jac, inv_jac_t, _det = V.mesh.geometry
    return np.einsum("eij,qaj->eqai", inv_jac_t, V.batch(order)["ref_grads"])


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_at_quadrature_matches_physical_gradient_einsum(d, k):
    V = FeSpace(uniform_refine(build_box_mesh(d, 2), 1), k)
    u = FeFunction(V, np.random.default_rng(3).normal(size=V.n_dofs))
    order = V.default_order()
    b = V.batch(order)
    u_loc = u.coeffs[V.elem_dofs]
    ref_vals = np.einsum("qa,ea->eq", b["values"], u_loc)
    ref_grads = np.einsum("eqai,ea->eqi", physical_gradients(V, order), u_loc)
    vals, grads = u.at_quadrature(order)
    assert np.abs(vals - ref_vals).max() <= 1e-12 * np.abs(ref_vals).max()
    assert np.abs(grads - ref_grads).max() <= 1e-12 * np.abs(ref_grads).max()


@pytest.mark.parametrize("d,k", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_batch_stores_no_per_element_shape_gradients(d, k):
    V = FeSpace(uniform_refine(build_box_mesh(d, 2), 1), k)
    for order in (V.default_order(), 2 * k + 4):
        b = V.batch(order)
        ne = V.mesh.n_elements
        nq, nloc, D = b["ref_grads"].shape
        assert ne not in (D * nloc, D * D * nloc)  # no size coincidence
        sizes = {name: np.size(arr) for name, arr in b.items()
                 if isinstance(arr, np.ndarray)}
        assert ne * nq * nloc * D not in sizes.values(), sizes


def test_gradients_match_finite_differences():
    V = FeSpace(build_box_mesh(1, 2), 2)
    rng = np.random.default_rng(5)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    h = 1e-7
    for e in (0, 3):
        xi = np.array([0.21, 0.37])
        _, gx, dt = u.eval(e, xi)
        grad = np.array([gx[0], dt])
        # finite differences through the affine map
        mesh = V.mesh
        x0 = mesh.vertices[mesh.elements[e, 0]]
        J = (mesh.vertices[mesh.elements[e]][1:] - x0).T
        for i in range(2):
            dxi = np.linalg.solve(J, h * np.eye(2)[i])
            vp, _, _ = u.eval(e, xi + dxi)
            vm, _, _ = u.eval(e, xi - dxi)
            assert (vp - vm) / (2 * h) == pytest.approx(grad[i], rel=1e-6, abs=1e-6)


def test_error_norms_zero_cases():
    V = FeSpace(build_box_mesh(1, 2), 1)
    g = lambda p: 0.2 + 1.5 * p[:, 0] - 0.3 * p[:, 1]
    ggrad = lambda p: np.column_stack([np.full(len(p), 1.5)])
    u = interpolate(V, g)
    l2, h1 = error_norms(u, g, ggrad)
    assert l2 < 1e-12 and h1 < 1e-12

    z = zero_function(V)
    l2, h1 = error_norms(z, lambda p: np.zeros(len(p)),
                         lambda p: np.zeros((len(p), 1)))
    assert l2 == 0.0 and h1 == 0.0


def test_interpolant_l2_rate_is_k_plus_one():
    exact = smooth_product_solution(1)
    mesh = build_box_mesh(1, 2)
    errs = []
    for _ in range(4):
        V = FeSpace(mesh, 1)
        u = interpolate(V, exact.value)
        errs.append(error_norms(u, exact.value, exact.grad)[0])
        mesh = uniform_refine(mesh, 2)
    orders = [np.log2(errs[i - 1] / errs[i]) for i in range(1, len(errs))]
    for o in orders[-3:]:
        assert abs(o - 2.0) < 0.15


def test_inject_is_nested():
    rng = np.random.default_rng(2)
    for d in (1, 2):
        mesh = refine(build_box_mesh(d, 2), [0, 3])
        V1, V2 = FeSpace(mesh, 1), FeSpace(mesh, 2)
        assert V2.n_dofs > V1.n_dofs
        coeffs = rng.normal(size=V1.n_dofs)
        coeffs[V1.constrained] = 0.0
        u = FeFunction(V1, coeffs)
        u2 = inject(u, V2)
        for e in (0, 4):
            for xi in reference_points(d + 1, 2, rng):
                v1, g1, t1 = u.eval(e, xi)
                v2, g2, t2 = u2.eval(e, xi)
                assert v2 == pytest.approx(v1, abs=1e-13)
                assert np.allclose(g2, g1, atol=1e-12)
                assert t2 == pytest.approx(t1, abs=1e-12)
        # constrained sets nest, and injection keeps the boundary values zero
        assert np.all(V2.constrained[:mesh.n_vertices] == V1.constrained)
        assert np.all(u2.coeffs[V2.constrained] == 0.0)


def reference_points(D, n, rng):
    """n random points inside the reference simplex of dimension D."""
    return rng.dirichlet(np.ones(D + 1), size=n)[:, 1:]


@pytest.mark.parametrize("k", [1, 2])
def test_transfer_reproduces_polynomials_across_refinement(k):
    mesh = build_box_mesh(1, 2)
    V = FeSpace(mesh, k)
    if k == 1:
        g = lambda p: 1.0 - p[:, 0] + 2.0 * p[:, 1]
    else:
        g = lambda p: p[:, 0] ** 2 - p[:, 0] * p[:, 1] + 0.3
    u = interpolate(V, g)
    fine = uniform_refine(mesh, 2)
    Vf = FeSpace(fine, k)
    uf = transfer(u, Vf)
    assert np.allclose(uf.coeffs, interpolate(Vf, g).coeffs, atol=1e-13)


@pytest.mark.parametrize("k", [1, 2])
@pytest.mark.parametrize("d", [1, 2])
def test_transfer_is_exact_across_marked_bisection(d, k):
    rng = np.random.default_rng(5 + d)
    coarse = refine(build_box_mesh(d, 2), [0])
    marked = rng.choice(coarse.n_elements, coarse.n_elements // 3,
                        replace=False)
    fine = refine(coarse, marked)
    Vc = FeSpace(coarse, k)
    u = FeFunction(Vc, rng.normal(size=Vc.n_dofs))
    uf = transfer(u, FeSpace(fine, k))
    D = d + 1
    for e in range(fine.n_elements):
        a = fine.parent_leaf[e]
        xf = fine.vertices[fine.elements[e]]
        xc = coarse.vertices[coarse.elements[a]]
        for xi in reference_points(D, 3, rng):
            x = xf[0] + xi @ (xf[1:] - xf[0])
            xi_c = np.linalg.solve((xc[1:] - xc[0]).T, x - xc[0])
            vf, gf, tf = uf.eval(e, xi)
            vc, gc, tc = u.eval(int(a), xi_c)
            assert vf == pytest.approx(vc, abs=1e-12)
            assert np.allclose(gf, gc, atol=1e-10)
            assert tf == pytest.approx(tc, abs=1e-10)


def test_transfer_requires_recorded_refinement():
    V = FeSpace(build_box_mesh(1, 2), 1)
    W = FeSpace(build_box_mesh(1, 4), 1)
    with pytest.raises(ValueError):
        transfer(zero_function(V), W)


def test_transfer_rejects_a_mesh_that_is_not_its_parent():
    mesh = build_box_mesh(1, 2)
    child = refine(mesh, [0])
    grandchild = refine(child, [0])
    assert grandchild.parent_mesh() is child
    transfer(zero_function(FeSpace(child, 1)), FeSpace(grandchild, 1))
    with pytest.raises(ValueError):
        transfer(zero_function(FeSpace(mesh, 1)), FeSpace(grandchild, 1))


# -- what one level holds: points on demand, blocked source, CSR pattern ----

def traced_peak(fn):
    """Result of fn() and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        out = fn()
        return out, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def blocks_mesh(blocks):
    """A d=1 mesh of at least ``blocks`` source blocks of elements."""
    mesh = build_box_mesh(1, 2)
    while mesh.n_elements <= (blocks - 1) * spaces._ELEMENT_BLOCK:
        mesh = uniform_refine(mesh, 1)
    return mesh


@pytest.mark.parametrize("mesh", [
    uniform_refine(build_box_mesh(2, 2), 1), build_region_mesh(2)[0]],
    ids=["box", "region"])
def test_points_are_computed_on_demand(mesh):
    # bitwise equal to the einsum that batch() cached, also on the region
    # mesh, whose Jacobians are not dyadic
    V = FeSpace(mesh, 2)
    order = V.default_order()
    assert "points" not in V.batch(order)
    jac = V.mesh.geometry[0]
    X0 = V.mesh.vertices[V.mesh.elements[:, 0]]
    pts = X0[:, None, :] + np.einsum(
        "eij,qj->eqi", jac, V.batch(order)["rule"].points)
    assert np.array_equal(V.mesh.points(order), pts)
    assert np.array_equal(V.mesh.points(order, slice(5, 9)), pts[5:9])


def test_source_values_are_evaluated_in_element_blocks():
    mesh = blocks_mesh(3)
    V = FeSpace(mesh, 1)
    order = V.default_order()
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    sizes = []

    def source(pts):
        sizes.append(len(pts))
        return prob.source(pts)

    f = V.mesh.source_values(source, order)
    nq = len(V.batch(order)["rule"].weights)
    assert len(sizes) == -(-mesh.n_elements // spaces._ELEMENT_BLOCK) >= 3
    assert max(sizes) <= spaces._ELEMENT_BLOCK * nq
    assert sum(sizes) == mesh.n_elements * nq
    whole = prob.source(V.mesh.points(order).reshape(-1, 2))
    assert np.array_equal(f, whole.reshape(f.shape))


def test_source_evaluation_holds_no_whole_mesh_temporaries():
    V = FeSpace(blocks_mesh(8), 1)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    V.mesh.geometry  # cached per mesh, as in every assembly
    f, peak = traced_peak(
        lambda: V.mesh.source_values(lambda x: prob.source(x), 6))
    assert peak <= 3 * f.nbytes


@pytest.mark.parametrize("d, degree", [(1, 1), (2, 2)])
def test_csr_pattern_matches_the_unique_keys(d, degree):
    mesh = uniform_refine(build_box_mesh(d, 2), 6 if d == 1 else 2)
    V = FeSpace(mesh, degree)
    n, ed = V.n_dofs, V.elem_dofs.astype(np.int64)
    keys = (ed[:, :, None] * n + ed[:, None, :]).ravel()
    pattern, peak = traced_peak(lambda: V.csr_pattern)
    unique, slot = np.unique(keys, return_inverse=True)
    rows, cols = np.divmod(unique, n)
    assert np.array_equal(pattern["slot"], slot.ravel())
    assert np.array_equal(pattern["indices"], cols)
    assert np.array_equal(pattern["indptr"],
                          np.searchsorted(rows, np.arange(n + 1)))
    assert peak <= 5 * keys.nbytes
