import numpy as np
import pytest

from stfem.goals import (FinalTimeIntegralGoal, GoalError, RegionEnergyGoal,
                         eval_goal, goal_derivative)
from stfem.mesh import (build_box_mesh, build_region_mesh, diamond_region,
                        refine, uniform_refine)
from stfem.problems import smooth_product_solution
from stfem.quadrature import simplex_rule
from stfem.spaces import (FeFunction, FeSpace, interpolate, tabulate_shape,
                          zero_function)

FINAL_TIME_D1 = 2.0 * np.e / np.pi  # integral of e*sin(pi x) over (0,1)
DIAMOND_P4 = 0.011016424135601978  # frozen high-order quadrature oracle


def test_zero_function_gives_zero_goal():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    assert eval_goal(goal, zero_function(V)) == 0.0
    mesh, region = build_region_mesh(1)
    Vr = FeSpace(mesh, 1)
    rgoal = RegionEnergyGoal(region, 4.0, mesh)
    assert eval_goal(rgoal, zero_function(Vr)) == 0.0


def test_final_time_goal_linearity():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    rng = np.random.default_rng(0)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    w = FeFunction(V, rng.normal(size=V.n_dofs))
    a, b = 1.7, -0.3
    lin = FeFunction(V, a * u.coeffs + b * w.coeffs)
    assert eval_goal(goal, lin) == pytest.approx(
        a * eval_goal(goal, u) + b * eval_goal(goal, w), rel=1e-12)
    # derivative of a linear functional is the functional itself
    assert goal_derivative(goal, u, w) == pytest.approx(
        eval_goal(goal, w), rel=1e-12)


def test_final_time_goal_converges_to_exact_value():
    exact = smooth_product_solution(1)
    goal = FinalTimeIntegralGoal()
    errs = []
    mesh = build_box_mesh(1, 4)
    for _ in range(4):
        V = FeSpace(mesh, 1)
        u = interpolate(V, exact.value)
        errs.append(abs(eval_goal(goal, u) - FINAL_TIME_D1))
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
        errs.append(abs(eval_goal(goal, u) - DIAMOND_P4))
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
        assert eval_goal(goal, u) >= 0.0


def test_region_goal_zero_gradient_state():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    # constant in x inside the region: spatial gradient vanishes there
    u = interpolate(V, lambda p: np.ones(len(p)))
    rng = np.random.default_rng(6)
    v = FeFunction(V, rng.normal(size=V.n_dofs))
    assert goal_derivative(goal, u, v) == pytest.approx(0.0, abs=1e-13)


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
    fd = (eval_goal(goal, up) - eval_goal(goal, um)) / (2 * h)
    got = goal_derivative(goal, u, v)
    assert got == pytest.approx(fd, rel=1e-5)


def test_gradient_consistent_with_derivative():
    mesh, region = build_region_mesh(1)
    V = FeSpace(mesh, 1)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    rng = np.random.default_rng(8)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    g = goal.gradient(V, u)
    v = rng.normal(size=V.n_dofs)
    v[V.constrained] = 0.0
    assert g @ v == pytest.approx(
        goal_derivative(goal, u, FeFunction(V, v)), rel=1e-12)
    assert np.all(g[V.constrained] == 0.0)


@pytest.mark.parametrize("d,degree", [(1, 1), (1, 2), (2, 1), (2, 2)])
def test_region_gradient_matches_physical_gradient_einsum(d, degree):
    mesh, region = build_region_mesh(d)
    V = FeSpace(mesh, degree)
    goal = RegionEnergyGoal(region, 4.0, mesh)
    u = FeFunction(V, np.random.default_rng(9).normal(size=V.n_dofs))
    order = 2 * degree + 4
    b = V.batch(order)
    _jac, inv_jac_t, _det = V.geometry()
    gphi = np.einsum("eij,qaj->eqai", inv_jac_t, b["ref_grads"])[..., :-1]
    gx = np.einsum("eqai,ea->eqi", gphi, u.coeffs[V.elem_dofs])
    dens = 4.0 * np.sum(gx * gx, axis=-1)
    dens[~goal.inside_elements(mesh)] = 0.0
    g_loc = np.einsum("eq,eqi,eqai->ea", b["scale"], dens[..., None] * gx,
                      gphi)
    ref = np.zeros(V.n_dofs)
    np.add.at(ref, V.elem_dofs, g_loc)
    ref[V.constrained] = 0.0
    got = goal.gradient(V, u, order)
    assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()


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


def test_final_time_element_localization_sums_to_derivative():
    V = FeSpace(build_box_mesh(1, 2), 1)
    goal = FinalTimeIntegralGoal()
    rng = np.random.default_rng(10)
    u = FeFunction(V, rng.normal(size=V.n_dofs))
    w = rng.normal(size=V.n_dofs)
    loc = goal.derivative_element_values(V, u, w)
    assert loc.sum() == pytest.approx(
        goal_derivative(goal, u, FeFunction(V, w)), rel=1e-12)
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
    rule = simplex_rule(d, goal.facet_order)
    _jac, inv_jac_t, _det = V.geometry()
    w = np.random.default_rng(12).normal(size=V.n_dofs)
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
        np.add.at(g, V.elem_dofs[elem], scale * (rule.weights @ vals))
        loc[elem] += scale * (rule.weights @ (vals @ w[V.elem_dofs[elem]]))
    assert np.array_equal(goal._facet_vector(V), g)
    got = goal.derivative_element_values(V, None, w)
    assert np.abs(got - loc).max() <= 1e-14 * np.abs(loc).max()
