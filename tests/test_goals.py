import weakref
from math import factorial

import numpy as np
import pytest

from stfem.cli import REGION_GOAL_P4
from stfem.goals import (FACET_ORDER, FinalTimeIntegralGoal, GoalError,
                         RegionEnergyGoal)
from stfem.mesh import (build_box_mesh, build_region_mesh, diamond_region,
                        octahedron_region, refine, uniform_refine)
from stfem.problems import smooth_product_solution
from stfem.quadrature import simplex_rule
from stfem.spaces import (FeFunction, FeSpace, interpolate, tabulate_shape,
                          zero_function)

FINAL_TIME_D1 = 2.0 * np.e / np.pi  # integral of e*sin(pi x) over (0,1)
DIAMOND_P4 = 0.011016424135601978  # frozen high-order quadrature oracle


def test_zero_function_gives_zero_goal():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    assert goal.value(zero_function(V)) == 0.0
    mesh, region = build_region_mesh(1)
    Vr = FeSpace(mesh, 1)
    rgoal = RegionEnergyGoal(region, 4.0, mesh)
    assert rgoal.value(zero_function(Vr)) == 0.0


def test_final_time_goal_linearity():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    rng = np.random.default_rng(0)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    w = FeFunction(V, rng.normal(size=V.n_dofs))
    a, b = 1.7, -0.3
    lin = FeFunction(V, a * u.coeffs + b * w.coeffs)
    assert goal.value(lin) == pytest.approx(
        a * goal.value(u) + b * goal.value(w), rel=1e-12)
    # derivative of a linear functional is the functional itself
    assert goal.derivative(u, w) == pytest.approx(goal.value(w), rel=1e-12)


def test_derivative_needs_both_functions_on_one_space():
    mesh = build_box_mesh(1, 2)
    goal = FinalTimeIntegralGoal()
    u = zero_function(FeSpace(mesh, 1))
    with pytest.raises(ValueError, match="same space"):
        goal.derivative(u, zero_function(FeSpace(mesh, 1)))


def test_final_time_goal_converges_to_exact_value():
    exact = smooth_product_solution(1)
    goal = FinalTimeIntegralGoal()
    errs = []
    mesh = build_box_mesh(1, 4)
    for _ in range(4):
        V = FeSpace(mesh, 1)
        u = interpolate(V, exact.value)
        errs.append(abs(goal.value(u) - FINAL_TIME_D1))
        mesh = uniform_refine(mesh, 2)
    assert errs[-1] < 2e-3
    assert all(errs[i] > errs[i + 1] for i in range(len(errs) - 1))


def test_region_goal_value_converges_to_oracle():
    mesh, region = build_region_mesh(1)
    exact = smooth_product_solution(1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    errs = []
    for _ in range(4):
        V = FeSpace(mesh, 1)
        u = interpolate(V, exact.value)
        errs.append(abs(goal.value(u) - DIAMOND_P4))
        mesh = uniform_refine(mesh, 2)
    assert errs[0] > errs[-1]
    assert errs[-1] < 2e-3


def test_region_goal_nonnegative():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    rng = np.random.default_rng(5)
    for _ in range(10):
        u = FeFunction(V, rng.normal(size=V.n_dofs))
        assert goal.value(u) >= 0.0


def test_region_goal_zero_gradient_state():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    # constant in x inside the region: spatial gradient vanishes there
    u = interpolate(V, lambda p: np.ones(len(p)))
    rng = np.random.default_rng(6)
    v = FeFunction(V, rng.normal(size=V.n_dofs))
    assert goal.derivative(u, v) == pytest.approx(0.0, abs=1e-13)


def test_region_goal_derivative_matches_finite_differences():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    rng = np.random.default_rng(7)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    v = FeFunction(V, rng.normal(size=V.n_dofs))
    h = 1e-6
    up = FeFunction(V, u.coeffs + h * v.coeffs)
    um = FeFunction(V, u.coeffs - h * v.coeffs)
    fd = (goal.value(up) - goal.value(um)) / (2 * h)
    got = goal.derivative(u, v)
    assert got == pytest.approx(fd, rel=1e-5)


def test_gradient_consistent_with_derivative():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    rng = np.random.default_rng(8)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    g = goal.gradient(u)
    v = rng.normal(size=V.n_dofs)
    v[V.constrained] = 0.0
    assert g @ v == pytest.approx(
        goal.derivative(u, FeFunction(V, v)), rel=1e-12)
    assert np.all(g[V.constrained] == 0.0)


@pytest.mark.parametrize("d,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_region_gradient_matches_physical_gradient_einsum(d, degree):
    mesh, region = build_region_mesh(d)
    V = FeSpace(mesh, degree)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    u = FeFunction(V, np.random.default_rng(9).normal(size=V.n_dofs))
    order = 2 * degree + 4
    b = V.batch(order)
    _jac, inv_jac_t, _det = V.mesh.geometry
    gphi = np.einsum("eij,qaj->eqai", inv_jac_t, b["ref_grads"])[..., :-1]
    gx = np.einsum("eqai,ea->eqi", gphi, u.coeffs[V.elem_dofs])
    dens = 4.0 * np.sum(gx * gx, axis=-1)
    dens[~goal.inside_elements(mesh)] = 0.0
    g_loc = np.einsum("eq,eqi,eqai->ea", b["scale"], dens[..., None] * gx,
                      gphi)
    ref = np.zeros(V.n_dofs)
    np.add.at(ref, V.elem_dofs, g_loc)
    ref[V.constrained] = 0.0
    got = goal.gradient(u)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()
    # the element split of J'(u)(w), against the same per-point reference
    w = np.random.default_rng(10).normal(size=V.n_dofs)
    wg = np.einsum("eqai,ea->eqi", gphi, w[V.elem_dofs])
    ref_e = np.einsum("eq,eqi,eqi->e", b["scale"], dens[..., None] * gx, wg)
    got_e = goal.derivative_element_values(u, w)
    assert np.abs(got_e - ref_e).max() <= 1e-12 * np.abs(ref_e).max()


def test_unaligned_region_rejected():
    mesh = build_box_mesh(1, 3)  # diamond not resolved by a 3x3 Kuhn grid
    with pytest.raises(GoalError):
        RegionEnergyGoal(diamond_region(), 4.0, mesh)


def test_region_membership_survives_refinement():
    mesh, region = build_region_mesh(1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    rng = np.random.default_rng(9)
    for _ in range(4):
        marked = rng.choice(mesh.n_elements, size=mesh.n_elements // 3 + 1,
                            replace=False)
        mesh = refine(mesh, marked)
        inside = goal.inside_elements(mesh)
        assert mesh.volumes()[inside].sum() == pytest.approx(
            region.volume, abs=1e-11)


def test_regions_of_equal_size_get_their_own_masks():
    # two diamonds of one radius share a label and a volume, but not a mask
    mesh = uniform_refine(build_box_mesh(1, 8), 2)
    centred, shifted = (diamond_region(c, 0.25)
                        for c in ((0.5, 0.5), (0.25, 0.5)))
    first = RegionEnergyGoal(centred, 4.0, mesh).inside_elements(mesh)
    second = RegionEnergyGoal(shifted, 4.0, mesh).inside_elements(mesh)
    fresh = uniform_refine(build_box_mesh(1, 8), 2)
    alone = RegionEnergyGoal(shifted, 4.0, fresh).inside_elements(fresh)
    assert not np.array_equal(first, alone)
    assert np.array_equal(second, alone)


def test_final_time_element_localization_sums_to_derivative():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    rng = np.random.default_rng(10)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    w = rng.normal(size=V.n_dofs)
    loc = goal.derivative_element_values(u, w)
    assert loc.sum() == pytest.approx(
        goal.derivative(u, FeFunction(V, w)), rel=1e-12)
    # only elements owning top facets contribute
    top_owned = loc != 0.0
    bc = V.mesh.barycenters()
    assert np.all(bc[top_owned][:, -1] > 0.5)


@pytest.mark.parametrize("d,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_final_time_goal_matches_facet_loop(d, degree):
    # per-facet quadrature loop as the reference for the cached weights
    mesh = build_box_mesh(d, 2)
    mesh = refine(mesh, np.arange(0, mesh.n_elements, 3))
    V = FeSpace(mesh, degree)
    goal = FinalTimeIntegralGoal()
    rule = simplex_rule(d, FACET_ORDER)
    _jac, inv_jac_t, _det = V.mesh.geometry
    w = np.random.default_rng(12).normal(size=V.n_dofs)
    table = np.zeros((mesh.n_elements, V.n_local))
    g = np.zeros(V.n_dofs)
    loc = np.zeros(mesh.n_elements)
    # top facets from the element-local facets, not the mesh's boundary table
    top_facets = [(sorted(verts[:i] + verts[i + 1:]), elem)
                  for elem, verts in enumerate(mesh.elements.tolist())
                  for i in range(d + 2)
                  if np.all(mesh.vertices[verts[:i] + verts[i + 1:], -1]
                            == 1.0)]
    for facet, elem in top_facets:
        F = mesh.vertices[facet]
        E = F[1:] - F[:1]
        scale = np.sqrt(abs(np.linalg.det(E @ E.T)))
        x0 = mesh.vertices[mesh.elements[elem, 0]]
        ref = (F[0] + rule.points @ E - x0) @ inv_jac_t[elem]
        vals, _ = tabulate_shape(d + 1, degree, ref)
        table[elem] += scale * (rule.weights @ vals)
        np.add.at(g, V.elem_dofs[elem], scale * (rule.weights @ vals))
        loc[elem] += scale * (rule.weights @ (vals @ w[V.elem_dofs[elem]]))
    # linear: the tables do not depend on the state, so any u on V serves
    zero = zero_function(V)
    assert np.array_equal(goal.element_vectors(zero), table)
    g[V.constrained] = 0.0
    assert np.array_equal(goal.gradient(zero), g)
    got = goal.derivative_element_values(zero, w)
    assert np.abs(got - loc).max() <= 1e-14 * np.abs(loc).max()


# children of the reference simplex under one uniform (red) subdivision, as
# indices into its vertices followed by its edge midpoints in the order
# m01, m02, (m03,) m12, (m13, m23)
RED_CHILDREN = {
    2: [(0, 3, 4), (3, 1, 5), (4, 5, 2), (3, 5, 4)],
    3: [(0, 4, 5, 6), (4, 1, 7, 8), (5, 7, 2, 9), (6, 8, 9, 3),
        (4, 5, 6, 8), (4, 5, 7, 8), (5, 6, 8, 9), (5, 7, 8, 9)],
}


def red_subdivide(simplices):
    """Each simplex of (n, D+1, D) vertex coordinates split into 2^D."""
    D = simplices.shape[-1]
    edges = [(i, j) for i in range(D + 1) for j in range(i + 1, D + 1)]
    mids = [(simplices[:, i] + simplices[:, j]) / 2 for i, j in edges]
    pts = np.concatenate([simplices, np.stack(mids, axis=1)], axis=1)
    return pts[:, RED_CHILDREN[D]].reshape(-1, D + 1, D)


@pytest.mark.parametrize("d,rounds", [(1, 3), (2, 2)])
def test_region_goal_oracles_match_quadrature(d, rounds):
    # the region split into simplices around its center: the diamond into
    # 4 triangles, the octahedron into 8 tetrahedra (one per face)
    c = np.full(d + 1, 0.5)
    if d == 1:
        ring = c + 0.25 * np.array([[1, 0], [0, 1], [-1, 0], [0, -1]])
        simplices = np.array([[c, ring[i], ring[(i + 1) % 4]]
                              for i in range(4)])
        volume = diamond_region().volume
    else:
        ring = c + 0.25 * np.array([[1, 1, 0], [-1, 1, 0], [-1, -1, 0],
                                    [1, -1, 0]])
        apexes = c + np.array([[0, 0, 1], [0, 0, -1]]) * 0.25 * np.sqrt(2.0)
        simplices = np.array([[c, apex, ring[i], ring[(i + 1) % 4]]
                              for apex in apexes for i in range(4)])
        volume = octahedron_region().volume
    for _ in range(rounds):
        simplices = red_subdivide(simplices)
    E = simplices[:, 1:] - simplices[:, :1]
    det = np.abs(np.linalg.det(E))
    assert det.sum() / factorial(d + 1) == pytest.approx(
        volume, rel=1e-14)
    rule = simplex_rule(d + 1, 12)
    pts = simplices[:, :1] + rule.points @ E  # (n, nq, D)
    gx = smooth_product_solution(d).grad(pts.reshape(-1, d + 1))
    dens = np.sum(gx * gx, axis=1) ** 2  # |grad_x u|^4
    J = np.sum(det[:, None] * rule.weights * dens.reshape(len(det), -1))
    assert J == pytest.approx(REGION_GOAL_P4[d], rel=1e-12, abs=0.0)


def test_goal_tables_do_not_keep_their_space_or_mesh_alive():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 2)
    final, energy = FinalTimeIntegralGoal(), RegionEnergyGoal(region, 4.0, mesh)
    u = interpolate(V, lambda x: x[:, 0] * x[:, 1])
    for goal in (final, energy):
        goal.element_vectors(u)
    space_ref, mesh_ref = weakref.ref(V), weakref.ref(mesh)
    del V, mesh, u
    assert space_ref() is None
    assert mesh_ref() is None
