import weakref

import numpy as np
import pytest

from stfem.adaptivity import (AdaptiveConfig, ConvergenceRecord,
                              adaptive_loop, doerfler_mark)
from stfem.goals import FinalTimeIntegralGoal
from stfem.mesh import build_box_mesh
from stfem.problems import smooth_problem
from stfem.solvers import LinearSolverConfig, NewtonConfig
from stfem.spaces import inject, transfer

DIRECT = LinearSolverConfig(kind="direct")
EXACT_GOAL_D1 = 2.0 * np.e / np.pi


def test_doerfler_examples():
    assert doerfler_mark([4.0, 3.0, 2.0, 1.0], 0.6).tolist() == [0, 1]
    assert doerfler_mark([5.0, 1.0, 1.0, 1.0], 0.5).tolist() == [0]
    assert doerfler_mark([1.0, 0.0, 2.0, 0.0], 1.0).tolist() == [0, 2]
    assert doerfler_mark([0.0, 0.0], 0.5).size == 0
    # ties go to the lowest element index
    assert doerfler_mark([1.0, 1.0, 1.0, 1.0], 0.5).tolist() == [0, 1]


def test_doerfler_uses_magnitudes():
    assert doerfler_mark([-4.0, 3.0, -2.0, 1.0], 0.6).tolist() == [0, 1]


def test_doerfler_minimality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        ind = rng.exponential(size=30)
        theta = rng.uniform(0.2, 0.95)
        marked = doerfler_mark(ind, theta)
        total = ind.sum()
        assert ind[marked].sum() >= theta * total * (1 - 1e-12)
        smallest = marked[np.argmin(ind[marked])]
        rest = np.setdiff1d(marked, [smallest])
        assert ind[rest].sum() < theta * total


def test_doerfler_rejects_nonfinite():
    with pytest.raises(ValueError):
        doerfler_mark([1.0, np.nan], 0.5)


def test_config_validation():
    with pytest.raises(ValueError):
        AdaptiveConfig(theta=0.0)
    with pytest.raises(ValueError):
        AdaptiveConfig(mode="foo")
    with pytest.raises(ValueError):
        AdaptiveConfig(mode="dwr", degree=2)
    with pytest.raises(ValueError):
        AdaptiveConfig(max_levels=0)


@pytest.mark.parametrize("rounds", [0, -1])
def test_uniform_rounds_below_one_are_rejected(rounds):
    with pytest.raises(ValueError, match="uniform_rounds"):
        AdaptiveConfig(mode="uniform", uniform_rounds=rounds)


def test_dwr_loop_without_a_goal_fails_before_any_solve(monkeypatch):
    from stfem import adaptivity

    def no_solve(*args, **kwargs):
        raise AssertionError("newton_solve called")

    monkeypatch.setattr(adaptivity, "newton_solve", no_solve)
    with pytest.raises(ValueError, match="goal"):
        adaptive_loop(smooth_problem(1), None, build_box_mesh(1, 2),
                      AdaptiveConfig(mode="dwr"))


def test_uniform_loop_records_and_rates():
    # linear problem: clean second-order L2 convergence
    prob = smooth_problem(1, p=2.0, eps=1.0)
    cfg = AdaptiveConfig(mode="uniform", uniform_rounds=2, max_dofs=2000,
                         max_levels=10)
    result = adaptive_loop(prob, None, build_box_mesh(1, 2), cfg, lcfg=DIRECT)
    recs = result.records
    assert result.converged
    dofs = [r.dofs for r in recs]
    assert all(dofs[i] < dofs[i + 1] for i in range(len(dofs) - 1))
    assert all(r.level == i for i, r in enumerate(recs))
    l2 = [r.l2_Q_error for r in recs]
    orders = [np.log2(l2[i - 1] / l2[i]) for i in range(1, len(l2))]
    for o in orders[-2:]:
        assert abs(o - 2.0) < 0.15


def test_dwr_loop_produces_estimators_and_refines_near_top():
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = EXACT_GOAL_D1
    goal = FinalTimeIntegralGoal()
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=1500, max_levels=25)
    result = adaptive_loop(prob, goal, build_box_mesh(1, 2), cfg, lcfg=DIRECT)
    recs = result.records
    assert len(recs) >= 8
    for r in recs:
        assert np.isfinite(r.eta_h)
        assert np.isfinite(r.J_h)
        assert r.indicators is not None and len(r.indicators) == r.elements
    # goal error decreased from the first level to the last
    assert abs(recs[-1].J_error) < abs(recs[0].J_error)
    # refinement concentrates near the top face for the final-time goal
    bc = result.mesh.barycenters()
    assert (bc[:, -1] > 0.75).mean() > 0.5


# Per-level dofs, Newton iterations and inner iterations of the two DWR
# benchmark loops at seed 7 (the final-time goal, p=4, eps=1e-5, theta=0.5):
# d=2 with direct LU to 207 dofs, d=1 with GMRES and the "ilu0"
# preconditioner to 107 dofs.  A change that moves them has changed the
# solver path, not only its speed.  The inner iterations count every linear
# solve of the primal Newton, the primal adjoint and the enriched Newton.
# The enriched iterate that the guard or the cap stops solves only its
# adjoint, not a correction: one direct solve, or that correction's GMRES
# iterations (2,1,2,2,2,3,3,3,3,3,3,3 on the d=1 levels), fewer than when
# it also solved the correction.  The primal adjoint's GMRES runs under the
# transposed incomplete LU of K, not the incomplete LU of K^T; on levels 7
# and 10 it takes one iteration less (1 and 2 instead of 2 and 3).
SEED7_COUNTS = {
    (2, "direct", "jacobi", 207): (
        [27, 30, 33, 43, 72, 82, 114, 157, 207],
        [7, 5, 5, 6, 4, 4, 5, 5, 4],
        [12, 8, 8, 9, 7, 7, 8, 8, 7]),
    (1, "gmres", "ilu0", 107): (
        [9, 10, 11, 13, 19, 22, 27, 33, 42, 63, 83, 109],
        [6, 6, 4, 5, 4, 4, 4, 4, 4, 5, 4, 5],
        [13, 9, 9, 10, 10, 10, 10, 14, 15, 22, 16, 23]),
}


@pytest.mark.parametrize("d,kind,precond,max_dofs", sorted(SEED7_COUNTS))
def test_dwr_loops_repeat_the_seed7_counts(d, kind, precond, max_dofs):
    from stfem.cli import FINAL_TIME_GOAL
    prob = smooth_problem(d, p=4.0, eps=1e-5)
    prob.exact_goal = FINAL_TIME_GOAL[d]
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=max_dofs,
                         max_levels=40, degree=1, uniform_rounds=1, seed=7)
    lcfg = LinearSolverConfig(kind=kind, preconditioner=precond)
    result = adaptive_loop(prob, FinalTimeIntegralGoal(),
                           build_box_mesh(d, 2), cfg, NewtonConfig(), lcfg)
    recs = result.records
    assert result.converged
    assert ([r.dofs for r in recs], [r.newton_iters for r in recs],
            [r.inner_iters for r in recs]) \
        == SEED7_COUNTS[(d, kind, precond, max_dofs)]


def test_loop_continues_after_newton_failure():
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = EXACT_GOAL_D1
    goal = FinalTimeIntegralGoal()
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=400, max_levels=4)
    ncfg = NewtonConfig(max_iter=1)
    result = adaptive_loop(prob, goal, build_box_mesh(1, 2), cfg, ncfg, DIRECT)
    assert not result.converged
    assert len(result.records) == 4
    assert any(not r.converged for r in result.records)


def test_stalled_enriched_newton_still_gives_an_estimate(monkeypatch):
    # every Newton correction is zero, so no line-search trial lowers the
    # residual and every Newton stops at its start, before the guard is
    # first called; the adjoint solves are left as they are.  The level is
    # still estimated and marked, and its record reports the failure
    from stfem import solvers
    linear_solve = solvers.linear_solve

    def zero_corrections(K, lcfg, dim):
        solve = linear_solve(K, lcfg, dim)

        def stalled(rhs, trans="N"):
            res = solve(rhs, trans)
            if trans == "N":
                res.x = np.zeros_like(res.x)
            return res
        return stalled

    monkeypatch.setattr(solvers, "linear_solve", zero_corrections)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = EXACT_GOAL_D1
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=400, max_levels=3)
    result = adaptive_loop(prob, FinalTimeIntegralGoal(), build_box_mesh(1, 2),
                           cfg, NewtonConfig(max_line_search_steps=1), DIRECT)
    assert not result.converged and len(result.records) == 3
    for rec in result.records:
        assert not rec.converged and rec.newton_iters == 0
        assert np.isfinite(rec.eta_h)
        assert rec.pu_gap <= 1e-10 * max(1.0, abs(rec.eta_h))


def test_csv_field_order_is_stable():
    assert ConvergenceRecord.CSV_FIELDS == (
        "level", "dofs", "elements", "J_h", "J_error", "eta_h", "eta_h_p",
        "eta_h_a", "eta_k", "I_eff_h", "I_eff_p", "I_eff_a", "newton_iters",
        "inner_iters", "l2_Q_error", "l2_h1_error")


def test_capped_adjoint_gmres_fails_the_run(monkeypatch):
    # the Newton corrections stay direct and converge; only the transposed
    # (adjoint) solves run one Jacobi-preconditioned GMRES step and stop at
    # that cap, the primal ones inside the primal Newton
    from stfem import adaptivity, solvers
    from stfem.cli import main

    monkeypatch.setattr(solvers, "GMRES_MAX_ITER", 1)
    capped = LinearSolverConfig(kind="gmres", preconditioner="jacobi")
    linear_solve, newton_solve = solvers.linear_solve, adaptivity.newton_solve
    adjoint_ok, primal_ok = [], []

    def capped_adjoints(K, lcfg, dim):
        correct = linear_solve(K, lcfg, dim)
        adjoint = linear_solve(K, capped, dim)

        def solve(rhs, trans="N"):
            if trans == "N":
                return correct(rhs)
            res = adjoint(rhs, trans)
            adjoint_ok.append(res.converged)
            return res
        return solve

    def recording(prob, space, init, *args, **kwargs):
        u, stats = newton_solve(prob, space, init, *args, **kwargs)
        if space.degree == 1:
            primal_ok.append(stats.converged)
        return u, stats

    monkeypatch.setattr(solvers, "linear_solve", capped_adjoints)
    monkeypatch.setattr(adaptivity, "newton_solve", recording)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=400, max_levels=2)
    result = adaptive_loop(prob, FinalTimeIntegralGoal(), build_box_mesh(1, 2),
                           cfg, lcfg=DIRECT)
    assert adjoint_ok and not any(adjoint_ok)
    # every level's primal Newton and record report its capped adjoint
    assert len(result.records) == len(primal_ok) == 2
    assert not any(primal_ok)
    assert not any(r.converged for r in result.records)
    assert result.converged is False

    assert main(["--preset", "linear_goal", "--max-dofs", "50",
                 "--max-levels", "2"]) == 1


def record_newton_starts(monkeypatch, unconverged_p2_levels=()):
    """Wrap the loop's Newton solver; returns (degree, start, solution) per
    call, reporting the enriched solves of the given levels unconverged."""
    from stfem import adaptivity

    newton_solve = adaptivity.newton_solve
    calls = []

    def recording(prob, space, init, *args, **kwargs):
        u, stats = newton_solve(prob, space, init, *args, **kwargs)
        level = sum(1 for k, _, _ in calls if k == space.degree)
        if space.degree == 2 and level in unconverged_p2_levels:
            stats.converged = False
        calls.append((space.degree, init.copy(), u))
        return u, stats

    monkeypatch.setattr(adaptivity, "newton_solve", recording)
    return calls


def final_time_loop_d1(max_levels, max_dofs=400):
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = EXACT_GOAL_D1
    cfg = AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=max_dofs,
                         max_levels=max_levels)
    return adaptive_loop(prob, FinalTimeIntegralGoal(), build_box_mesh(1, 2),
                         cfg, lcfg=DIRECT)


def warm_start(u2_prev, V2):
    """The transferred enriched solution with zeros on constrained dofs."""
    expected = transfer(u2_prev, V2).coeffs
    expected[V2.constrained] = 0.0
    return expected


def test_enriched_newton_starts_from_the_previous_enriched_solution(
        monkeypatch):
    calls = record_newton_starts(monkeypatch)
    result = final_time_loop_d1(max_levels=4)
    assert result.converged and len(result.records) == 4
    p1 = [u for k, _, u in calls if k == 1]
    p2 = [(init, u) for k, init, u in calls if k == 2]
    init, _ = p2[0]
    assert np.array_equal(init.coeffs, inject(p1[0], init.space).coeffs)
    for level in range(1, 4):
        init, _ = p2[level]
        assert np.array_equal(init.coeffs,
                              warm_start(p2[level - 1][1], init.space))


def test_unconverged_enriched_solve_falls_back_to_injection(monkeypatch):
    calls = record_newton_starts(monkeypatch, unconverged_p2_levels=(0,))
    result = final_time_loop_d1(max_levels=3)
    assert not result.converged and len(result.records) == 3
    p1 = [u for k, _, u in calls if k == 1]
    p2 = [(init, u) for k, init, u in calls if k == 2]
    init, _ = p2[1]
    assert np.array_equal(init.coeffs, inject(p1[1], init.space).coeffs)
    init, _ = p2[2]
    assert np.array_equal(init.coeffs, warm_start(p2[1][1], init.space))


def test_enriched_stage_meets_its_guard_near_the_converged_estimate(
        monkeypatch):
    # the enriched Newton stops early, once |rho_2(u2)(z2)| is at most
    # ENRICHED_GUARD |eta_h|; eta_h then stays close to the estimate from a
    # fully converged enriched solve started at inject(u)
    from stfem import adaptivity
    from stfem.adaptivity import ENRICHED_GUARD
    from stfem.assembly import assemble_residual
    from stfem.dwr import estimate
    from stfem.solvers import newton_solve, solve_adjoint

    enriched = []

    def recording(prob, space, init, *args, **kwargs):
        u2, stats = newton_solve(prob, space, init, *args, **kwargs)
        if space.degree == 2:
            enriched.append((u2, stats))
        return u2, stats

    monkeypatch.setattr(adaptivity, "newton_solve", recording)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = EXACT_GOAL_D1
    goal = FinalTimeIntegralGoal()
    levels = []
    result = adaptive_loop(
        prob, goal, build_box_mesh(1, 2),
        AdaptiveConfig(mode="dwr", theta=0.5, max_dofs=400, max_levels=25),
        lcfg=DIRECT,
        callback=lambda lev, mesh, V, u, rec: levels.append((V, u, rec)))
    assert result.converged
    assert len(enriched) == len(levels) >= 8
    for (V, u, rec), (u2, stats) in zip(levels, enriched):
        V2 = u2.space
        r2 = assemble_residual(V2, u2, prob)
        assert abs(r2 @ stats.adjoint.coeffs) \
            <= ENRICHED_GUARD * abs(rec.eta_h)
        z, _ = solve_adjoint(V, u, goal, prob, DIRECT)
        u2c, stc = newton_solve(prob, V2, inject(u, V2), NewtonConfig(),
                                DIRECT)
        z2c, zc = solve_adjoint(V2, u2c, goal, prob, DIRECT)
        assert stc.converged and zc.converged
        full = estimate(prob, goal, u, z, u2c, z2c).eta_h
        # measured 1.7e-1 and 5.7e-2 on levels 0-1, <= 8.6e-3 from level 2
        bound = {0: 0.2, 1: 0.1}.get(rec.level, 1e-2)
        assert abs(rec.eta_h - full) <= bound * abs(full)


def test_region_goal_loop_d1_converges_on_every_level():
    # the region goal's estimate changes sign where J - J_h crosses zero;
    # the early-stopped enriched Newton must still converge on every level
    from stfem.cli import REGION_GOAL_P4
    from stfem.goals import RegionEnergyGoal
    from stfem.mesh import build_region_mesh

    prob = smooth_problem(1, p=4.0, eps=1e-5)
    prob.exact_goal = REGION_GOAL_P4[1]
    mesh, region = build_region_mesh(1)
    result = adaptive_loop(prob, RegionEnergyGoal(region, 4.0, mesh), mesh,
                           AdaptiveConfig(mode="dwr", theta=0.5,
                                          max_dofs=600),
                           lcfg=DIRECT)
    recs = result.records
    assert result.converged and recs[-1].dofs >= 600
    assert all(r.converged for r in recs)
    assert all(np.isfinite(r.I_eff_h) for r in recs)


@pytest.mark.parametrize("mode", ["dwr", "uniform"])
def test_loop_frees_the_coarse_level_before_the_next_solve(monkeypatch,
                                                           mode):
    # when level k+1's primal (enriched) Newton starts, nothing holds level
    # k's primal (enriched) space: neither its solution, its adjoint, nor
    # its solve statistics
    from stfem import adaptivity
    newton_solve = adaptivity.newton_solve
    levels, alive = {1: [], 2: []}, {1: [], 2: []}

    def watching(prob, space, init, *args, **kwargs):
        k = space.degree
        alive[k].append([ref() is not None for ref in levels[k]])
        levels[k].append(weakref.ref(space))
        return newton_solve(prob, space, init, *args, **kwargs)

    monkeypatch.setattr(adaptivity, "newton_solve", watching)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    cfg = AdaptiveConfig(mode=mode, max_dofs=10_000, max_levels=3)
    goal = FinalTimeIntegralGoal() if mode == "dwr" else None
    result = adaptive_loop(prob, goal, build_box_mesh(1, 2), cfg, lcfg=DIRECT)
    assert len(result.records) == 3
    freed = [[], [False], [False, False]]
    assert alive == {1: freed, 2: freed if mode == "dwr" else []}
