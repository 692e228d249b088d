import numpy as np
import pytest

from stfem.assembly import (assemble_jacobian, assemble_residual,
                            jacobian_form_element_values,
                            residual_form_element_values)
from stfem.dwr import EstimatorBreakdown, efficiency, enrich, estimate
from stfem.goals import FinalTimeIntegralGoal, eval_goal
from stfem.mesh import build_box_mesh, uniform_refine
from stfem.problems import smooth_problem
from stfem.solvers import (LinearSolverConfig, newton_solve,
                           random_initial_guess, solve_adjoint)
from stfem.spaces import FeFunction, FeSpace, inject

DIRECT = LinearSolverConfig(kind="direct")
EXACT_GOAL_D1 = 2.0 * np.e / np.pi


def solve_level(prob, goal, mesh, order=6):
    V = FeSpace(mesh, 1)
    u, su = newton_solve(prob, V, random_initial_guess(V, seed=0),
                         lcfg=DIRECT, order=order)
    z, _ = solve_adjoint(V, u, goal, prob, DIRECT, order)
    V2 = enrich(V)
    u2, s2 = newton_solve(prob, V2, inject(u, V2), lcfg=DIRECT, order=order)
    z2, _ = solve_adjoint(V2, u2, goal, prob, DIRECT, order)
    return V, u, z, V2, u2, z2


def test_enrich_dof_count_and_rejection():
    V = FeSpace(build_box_mesh(1, 1), 1)
    V2 = enrich(V)
    assert V.n_dofs == 4 and V2.n_dofs == 9
    with pytest.raises(ValueError):
        enrich(V2)


def test_injected_solutions_give_zero_discretization_parts():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 1)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    bd = estimate(prob, goal, u, z, inject(u, V2), inject(z, V2))
    assert bd.eta_h_p == pytest.approx(0.0, abs=1e-12)
    assert bd.eta_h_a == pytest.approx(0.0, abs=1e-12)
    assert np.abs(bd.local).max() < 1e-12


def test_eta_k_vanishes_at_converged_primal():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 1)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    bd = estimate(prob, goal, u, z, u2, z2)
    assert abs(bd.eta_k) <= 10 * 1e-10 * max(1.0, np.linalg.norm(z.coeffs))


def test_partition_of_unity_telescoping():
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 2)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    bd = estimate(prob, goal, u, z, u2, z2)
    # the local split must telescope to the global estimator value
    assert bd.local.sum() == pytest.approx(bd.eta_h, rel=1e-10, abs=1e-14)


def composed_estimate(prob, goal, u, z, u2, z2, order):
    """The estimator parts with every form evaluated from the function."""
    V2 = u2.space
    ut, zt = inject(u, V2), inject(z, V2)
    wz, wu = z2.coeffs - zt.coeffs, u2.coeffs - ut.coeffs
    r2 = assemble_residual(V2, ut, prob, order)
    K2 = assemble_jacobian(V2, ut, prob, order)
    eta_h_p = -float(r2 @ wz)
    eta_h_a = goal.derivative(V2, ut, FeFunction(V2, wu)) \
        - float(zt.coeffs @ (K2 @ wu))
    local = 0.5 * (-residual_form_element_values(V2, ut, wz, prob, order)
                   + goal.derivative_element_values(V2, ut, wu)
                   - jacobian_form_element_values(V2, ut, wu, zt.coeffs,
                                                  prob, order))
    return {"eta_h_p": eta_h_p, "eta_h_a": eta_h_a,
            "eta_h": 0.5 * (eta_h_p + eta_h_a),
            "eta_k": -float(r2 @ zt.coeffs), "local": local}


@pytest.mark.parametrize("d", [1, 2])
def test_estimate_with_shared_state_matches_per_form_composition(d):
    prob = smooth_problem(d, p=4.0, eps=1e-5)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(d, 2), 1)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    bd = estimate(prob, goal, u, z, u2, z2, 6)
    ref = composed_estimate(prob, goal, u, z, u2, z2, 6)
    for name in ("eta_h_p", "eta_h_a", "eta_h", "eta_k"):
        assert getattr(bd, name) == pytest.approx(ref[name], rel=1e-12,
                                                  abs=0.0)
    assert np.abs(bd.local - ref["local"]).max() \
        <= 1e-12 * np.abs(ref["local"]).max()
    assert abs(bd.local.sum() - bd.eta_h) \
        == abs(ref["local"].sum() - ref["eta_h"])


def test_estimate_rejects_mismatched_spaces():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 1)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    other = FeSpace(uniform_refine(mesh, 1), 2)
    bad = FeFunction(other, np.zeros(other.n_dofs))
    with pytest.raises(ValueError):
        estimate(prob, goal, u, z, bad, z2)


def test_efficiency_trivial_cases():
    bd = EstimatorBreakdown(eta_h_p=0.5, eta_h_a=0.3, eta_h=0.4, eta_k=0.0,
                            local=np.zeros(1))
    ih, ip, ia = efficiency(bd, 1.4, 1.0)
    assert ih == pytest.approx(1.0)
    assert ip == pytest.approx(1.25)
    bd0 = EstimatorBreakdown(eta_h_p=0.0, eta_h_a=0.0, eta_h=0.0, eta_k=0.0,
                             local=np.zeros(1))
    assert efficiency(bd0, 2.0, 1.0)[0] == 0.0
    # undefined when the true error vanishes
    assert efficiency(bd, 1.0, 1.0) == (None, None, None)


def test_estimator_tracks_true_error_linear_case():
    # p=2 with the linear goal: eta_h approximates the true goal error to
    # within a factor 2 beyond the coarsest meshes
    prob = smooth_problem(1, p=2.0, eps=1.0)
    prob.exact_goal = EXACT_GOAL_D1
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 2)
    for _ in range(3):
        V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
        bd = estimate(prob, goal, u, z, u2, z2)
        err = EXACT_GOAL_D1 - eval_goal(goal, u)
        assert 0.5 <= bd.eta_h / err <= 2.0
        mesh = uniform_refine(mesh, 2)


def test_error_identity_remainder_is_higher_order():
    # J(u2) - J(u) = eta_h - eta_k + R with R at least one order smaller
    prob = smooth_problem(1, p=4.0, eps=1.0)
    goal = FinalTimeIntegralGoal()
    mesh = build_box_mesh(1, 2)
    dJ, R, dofs = [], [], []
    for _ in range(4):
        V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
        bd = estimate(prob, goal, u, z, u2, z2)
        d = eval_goal(goal, u2) - eval_goal(goal, u)
        r = d - (bd.eta_h - bd.eta_k)
        dJ.append(abs(d))
        R.append(abs(r))
        dofs.append(V.n_dofs)
        mesh = uniform_refine(mesh, 2)
    slope_J = np.polyfit(np.log(dofs), np.log(dJ), 1)[0]
    slope_R = np.polyfit(np.log(dofs), np.log(R), 1)[0]
    # one extra order in h means 1/(d+1) = 0.5 steeper in dofs at d=1
    assert slope_R <= slope_J - 0.75 * 0.5


def test_global_parts_match_elementwise_sums():
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    goal = FinalTimeIntegralGoal()
    mesh = uniform_refine(build_box_mesh(1, 2), 1)
    V, u, z, V2, u2, z2 = solve_level(prob, goal, mesh)
    bd = estimate(prob, goal, u, z, u2, z2)
    # eta_h is assembled from global vectors, local from element integrals;
    # agreement validates both routes
    assert bd.local.sum() == pytest.approx(
        0.5 * (bd.eta_h_p + bd.eta_h_a), rel=1e-11)
