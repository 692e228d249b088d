import numpy as np
import pytest
import scipy.sparse as sp

from stfem import solvers
from stfem.adaptivity import AdaptiveConfig, adaptive_loop
from stfem.assembly import (assemble_jacobian, assemble_residual,
                            assemble_time_matrix)
from stfem.dwr import enrich
from stfem.mesh import build_box_mesh, uniform_refine
from stfem.problems import smooth_problem
from stfem.solvers import (LinearSolverConfig, NewtonConfig, gmres,
                           linear_solve, newton_solve, random_initial_guess,
                           solve_adjoint)
from stfem.goals import FinalTimeIntegralGoal
from stfem.spaces import FeFunction, FeSpace, inject, transfer, zero_function

DIRECT = LinearSolverConfig(kind="direct")
GMRES_ILU = LinearSolverConfig(kind="gmres", preconditioner="ilu0")


def spd_system(n=50, seed=7):
    rng = np.random.default_rng(seed)
    A = sp.random(n, n, density=0.3, random_state=seed)
    A = (A @ A.T + 10 * sp.eye(n)).tocsr()
    return A, rng.normal(size=n)


def test_gmres_identity_single_iteration():
    b = np.arange(1.0, 9.0)
    res = gmres(lambda v: v.copy(), b)
    assert res.iters == 1
    assert np.allclose(res.x, b)


def test_gmres_zero_rhs():
    res = gmres(lambda v: 2 * v, np.zeros(5))
    assert res.iters == 0
    assert np.all(res.x == 0.0)
    assert res.converged


def test_gmres_matches_direct_solve():
    A, b = spd_system()
    res = gmres(lambda v: A @ v, b, rel_tol=1e-10, max_iter=100)
    xd = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(res.x - xd) / np.linalg.norm(xd) < 1e-6
    assert res.converged


def test_gmres_residual_monotone():
    A, b = spd_system(seed=12)
    res = gmres(lambda v: A @ v, b, rel_tol=1e-12, max_iter=100)
    hist = res.residual_history
    assert all(hist[i + 1] <= hist[i] * (1 + 1e-12) for i in range(len(hist) - 1))


def test_gmres_iteration_cap_flags_nonconvergence():
    A, b = spd_system(seed=3)
    res = gmres(lambda v: A @ v, b, rel_tol=1e-14, max_iter=3)
    assert res.iters == 3
    assert not res.converged


@pytest.mark.parametrize("pc", ["jacobi", "ilu0"])
def test_preconditioned_linear_solve(pc):
    A, b = spd_system(seed=9)
    cfg = LinearSolverConfig(kind="gmres", preconditioner=pc)
    res = linear_solve(A, cfg)(b)
    xd = np.linalg.solve(A.toarray(), b)
    assert np.linalg.norm(res.x - xd) / np.linalg.norm(xd) < 1e-6


def test_unpreconditioned_gmres_is_not_a_choice():
    with pytest.raises(ValueError, match="unknown preconditioner"):
        LinearSolverConfig(kind="gmres", preconditioner="none")


def test_ilu_preconditions_the_enriched_adjoint_of_a_dwr_level():
    # final-time DWR in d=1 at 149 primal dofs: the P2-enriched adjoint
    # system has 552 unknowns; a zero-fill ILU(0) left GMRES at its
    # 100-iteration cap here
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    goal = FinalTimeIntegralGoal()
    levels = []
    adaptive_loop(prob, goal, build_box_mesh(1, 2),
                  AdaptiveConfig(mode="dwr", max_dofs=149, seed=7),
                  lcfg=DIRECT,
                  callback=lambda lev, mesh, V, u, rec: levels.append((V, u)))
    V, u = levels[-1]
    assert V.n_dofs >= 149
    V2 = enrich(V)
    u2, stats = newton_solve(prob, V2, inject(u, V2), lcfg=DIRECT)
    assert stats.converged
    _, res = solve_adjoint(V2, u2, goal, prob, GMRES_ILU)
    assert res.converged is True
    assert res.iters <= 20


def test_gmres_ilu_dwr_loop_converges_past_600_dofs():
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    result = adaptive_loop(prob, FinalTimeIntegralGoal(), build_box_mesh(1, 2),
                           AdaptiveConfig(mode="dwr", max_dofs=608),
                           lcfg=GMRES_ILU)
    assert result.records[-1].dofs >= 608
    assert result.converged is True


def test_direct_singular_reported_not_raised():
    # an exactly singular LU or incomplete LU factor, and a zero diagonal
    # for Jacobi, end the solve unconverged instead of raising
    A = sp.csr_matrix(np.array([[1.0, 0.0], [1.0, 0.0]]))
    for cfg in (DIRECT, GMRES_ILU,
                LinearSolverConfig(kind="gmres", preconditioner="jacobi")):
        solve = linear_solve(A, cfg)
        b = np.array([1.0, 2.0])
        for out in (solve(b), solve(b, "T")):
            assert not out.converged
            assert out.iters == 0
            assert np.all(out.x == 0.0)


def test_newton_linear_problem_single_iteration():
    prob = smooth_problem(1, p=2.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    for seed in (0, 4):
        u, stats = newton_solve(prob, V, random_initial_guess(V, seed=seed),
                                lcfg=DIRECT)
        assert stats.newton_iters == 1
        assert stats.converged


def test_newton_nonlinear_converges_with_monotone_residuals():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    u, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                            lcfg=DIRECT)
    assert stats.converged
    assert stats.newton_iters <= 15
    hist = stats.residual_history
    assert all(hist[i + 1] < hist[i] for i in range(len(hist) - 1))
    # converged state satisfies the discrete equations
    r = assemble_residual(V, u, prob)
    assert np.linalg.norm(r) <= max(1e-10, 1e-9 * hist[0])
    assert np.all(u.coeffs[V.constrained] == 0.0)


def test_newton_jacobian_reuses_the_accepted_trial_state(monkeypatch):
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 2)
    residuals, jacobians, evaluations = [], [], []

    def residual(space, u, prob_):
        r = assemble_residual(space, u, prob_)
        residuals.append((u, np.linalg.norm(r)))
        return r

    def jacobian(space, u, prob_):
        K = assemble_jacobian(space, u, prob_)
        jacobians.append((u, K))
        return K

    at_quadrature = FeFunction.at_quadrature

    def counted(self, order):
        evaluations.append(order)
        return at_quadrature(self, order)

    monkeypatch.setattr(solvers, "assemble_residual", residual)
    monkeypatch.setattr(solvers, "assemble_jacobian", jacobian)
    monkeypatch.setattr(FeFunction, "at_quadrature", counted)
    _u, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                             lcfg=DIRECT)
    monkeypatch.undo()
    assert stats.converged and stats.newton_iters >= 3
    assert len(jacobians) == stats.newton_iters
    # one evaluation per residual; the Jacobians evaluate no state
    assert len(evaluations) == len(residuals)
    for k, (state, K) in enumerate(jacobians[1:], start=1):
        # the state of the trial the line search accepted last
        assert any(st is state and rn == stats.residual_history[k]
                   for st, rn in residuals)
        fresh = assemble_jacobian(V, FeFunction(V, state.u.coeffs.copy()),
                                  prob)
        assert np.array_equal(K.indptr, fresh.indptr)
        assert np.array_equal(K.indices, fresh.indices)
        assert np.array_equal(K.data, fresh.data)


def test_newton_quadratic_tail():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 2), 1)
    _, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                            lcfg=DIRECT)
    hist = stats.residual_history
    ratios = [hist[i + 1] / hist[i] for i in range(len(hist) - 1)]
    assert ratios[-1] < ratios[-2] < ratios[-3]


def test_newton_iteration_cap_reports_failure():
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    _, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                            NewtonConfig(max_iter=2), DIRECT)
    assert not stats.converged
    assert stats.newton_iters == 2


def test_newton_without_line_search_trials_is_rejected():
    # no trial means no step: every Newton would end unconverged at its start
    with pytest.raises(ValueError, match="max_line_search_steps"):
        NewtonConfig(max_line_search_steps=0)


def enriched_newton(lcfg, stop, ncfg=None):
    """Enriched Newton with a goal on a d=2 mesh, started at the injected
    primal solution."""
    prob = smooth_problem(2, p=4.0, eps=1e-5)
    goal = FinalTimeIntegralGoal()
    V = FeSpace(build_box_mesh(2, 2), 1)
    u, _ = newton_solve(prob, V, random_initial_guess(V, seed=0),
                        lcfg=DIRECT)
    V2 = enrich(V)
    u2, stats = newton_solve(prob, V2, inject(u, V2), ncfg, lcfg, goal=goal,
                             stop=stop)
    return prob, goal, u2, stats


@pytest.mark.parametrize("lcfg", [DIRECT, GMRES_ILU], ids=["direct", "ilu0"])
def test_iterate_factor_solves_the_enriched_adjoint(lcfg):
    # the LU (or incomplete LU) of each iterate's Jacobian also solves
    # K(u2)^T z2 = J'(u2) at that iterate, as solve_adjoint does
    seen = []

    def stop(u2, r2, z2):
        seen.append((u2, r2, z2))
        return False

    prob, goal, u2, stats = enriched_newton(lcfg, stop)
    assert stats.converged
    # called from the first step on; the last call is at the returned iterate
    assert len(seen) == stats.newton_iters >= 3
    assert seen[-1][0] is u2 and seen[-1][2] is stats.adjoint
    for u2k, r2k, z2k in seen:
        V2 = u2k.space
        assert np.array_equal(r2k, assemble_residual(V2, u2k, prob))
        z_ref, res = solve_adjoint(V2, u2k, goal, prob, lcfg)
        assert res.converged
        rel = np.linalg.norm(z2k.coeffs - z_ref.coeffs) \
            / np.linalg.norm(z_ref.coeffs)
        if lcfg.kind == "direct":
            assert rel <= 1e-12
        else:
            K = assemble_jacobian(V2, u2k, prob)
            g = goal.gradient(V2, u2k)
            assert np.linalg.norm(K.T @ z2k.coeffs - g) \
                <= solvers.GMRES_REL_TOL * np.linalg.norm(g)
            assert rel <= 1e-6


def test_guard_ends_the_enriched_newton_after_the_first_step():
    calls = []

    def stop(u2, r2, z2):
        calls.append(u2)
        return True

    _prob, _goal, u2, stats = enriched_newton(DIRECT, stop)
    assert stats.converged and stats.newton_iters == 1
    assert len(calls) == 1 and calls[0] is u2
    assert stats.adjoint is not None
    # not reached by the residual tolerance
    assert stats.residual_history[-1] > stats.tol


@pytest.mark.parametrize("lcfg", [DIRECT, GMRES_ILU], ids=["direct", "ilu0"])
def test_no_iterate_solves_a_correction_it_discards(monkeypatch, lcfg):
    # the guard holds after the first step: the factor of that iterate's
    # Jacobian solves its adjoint and no correction
    factors = []  # (unknowns, [(trans, iters) of each solve with it])
    factor = solvers.linear_solve

    def counted(K, cfg, dim):
        solve, made = factor(K, cfg, dim), []
        factors.append((K.shape[0], made))

        def counted_solve(rhs, trans="N"):
            res = solve(rhs, trans)
            made.append((trans, res.iters))
            return res

        return counted_solve

    monkeypatch.setattr(solvers, "linear_solve", counted)
    _prob, _goal, u2, stats = enriched_newton(lcfg, lambda *_: True)
    monkeypatch.undo()
    enriched = [made for n, made in factors if n == u2.space.n_dofs]
    assert stats.newton_iters == 1 and len(enriched) == 2
    assert all([t for t, _ in made] == ["N"] for made in enriched[:-1])
    assert [t for t, _ in enriched[-1]] == ["T"]
    assert stats.total_inner_iters \
        == sum(iters for made in enriched for _, iters in made)


@pytest.mark.parametrize("lcfg", [DIRECT, GMRES_ILU], ids=["direct", "ilu0"])
def test_primal_newton_solves_its_adjoint_with_the_last_factor(monkeypatch,
                                                               lcfg):
    # given a goal and no stop, only the factor of the Jacobian at the
    # returned iterate solves K(u)^T z = J'(u), as solve_adjoint does
    factors = []  # the trans of each solve, per factor
    factor = solvers.linear_solve

    def counted(K, cfg, dim):
        solve, made = factor(K, cfg, dim), []
        factors.append(made)

        def counted_solve(rhs, trans="N"):
            made.append(trans)
            return solve(rhs, trans)

        return counted_solve

    monkeypatch.setattr(solvers, "linear_solve", counted)
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    goal = FinalTimeIntegralGoal()
    u, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                            lcfg=lcfg, goal=goal)
    monkeypatch.undo()
    assert stats.converged and stats.newton_iters >= 3
    assert factors == [["N"]] * stats.newton_iters + [["T"]]
    z = stats.adjoint.coeffs
    z_ref, res = solve_adjoint(V, u, goal, prob, lcfg)
    assert res.converged
    if lcfg.kind == "direct":
        assert np.linalg.norm(z - z_ref.coeffs) \
            <= 1e-12 * np.linalg.norm(z_ref.coeffs)
    else:
        K = assemble_jacobian(V, u, prob)
        g = goal.gradient(V, u)
        assert np.linalg.norm(K.T @ z - g) \
            <= solvers.GMRES_REL_TOL * np.linalg.norm(g)


def test_each_factor_is_freed_before_the_next_is_built(monkeypatch):
    # an LU kept alive while the next one is built raises the peak memory
    # of a uniform loop by about an eighth
    import weakref

    import scipy.sparse.linalg as spla
    splu = spla.splu
    factors, alive = [], []

    class Factor:
        def __init__(self, A):
            self.lu = splu(A)

        def solve(self, b, trans="N"):
            return self.lu.solve(b, trans)

    def tracked(A):
        alive.append(sum(ref() is not None for ref in factors))
        f = Factor(A)
        factors.append(weakref.ref(f))
        return f

    monkeypatch.setattr(spla, "splu", tracked)
    prob = smooth_problem(1, p=4.0, eps=1e-5)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 2), 1)
    _, stats = newton_solve(prob, V, random_initial_guess(V, seed=0),
                            lcfg=DIRECT)
    monkeypatch.undo()
    assert stats.converged and len(factors) == stats.newton_iters >= 3
    assert alive == [0] * len(factors)


def test_unconverged_enriched_adjoint_fails_the_solve(monkeypatch):
    # the guard holds after the first step, but one GMRES iteration leaves
    # the adjoint at that iterate unconverged
    monkeypatch.setattr(solvers, "GMRES_MAX_ITER", 1)
    capped = LinearSolverConfig(kind="gmres", preconditioner="jacobi")
    _prob, _goal, _u2, stats = enriched_newton(capped, lambda *_: True)
    assert stats.newton_iters == 1 and stats.adjoint is not None
    assert not stats.converged


def test_capped_enriched_newton_reports_failure():
    calls = []

    def stop(u2, r2, z2):
        calls.append(u2)
        return False

    _prob, _goal, u2, stats = enriched_newton(DIRECT, stop,
                                              NewtonConfig(max_iter=2))
    assert not stats.converged and stats.newton_iters == 2
    # the guard sees both iterates after a step, the last one at the cap
    assert len(calls) == 2 and calls[-1] is u2


def test_adjoint_zero_goal_gradient():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)

    class NullGoal:
        def gradient(self, space, u):
            return np.zeros(space.n_dofs)

    u, _ = newton_solve(prob, V, random_initial_guess(V, seed=0), lcfg=DIRECT)
    z, _ = solve_adjoint(V, u, NullGoal(), prob, DIRECT)
    assert np.all(z.coeffs == 0.0)


def test_adjoint_defining_identity():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    goal = FinalTimeIntegralGoal()
    u, _ = newton_solve(prob, V, random_initial_guess(V, seed=0), lcfg=DIRECT)
    z, _ = solve_adjoint(V, u, goal, prob, DIRECT)
    K = assemble_jacobian(V, u, prob)
    g = goal.gradient(V, u)
    # A'(u)(phi_i, z) = J'(u)(phi_i) for every basis function
    assert np.linalg.norm(K.T @ z.coeffs - g) <= 1e-8 * np.linalg.norm(g)


@pytest.mark.parametrize("lcfg", [DIRECT, GMRES_ILU], ids=["direct", "ilu0"])
def test_adjoint_factors_the_jacobian_not_its_transpose(monkeypatch, lcfg):
    import scipy.sparse.linalg as spla
    from stfem.solvers import Ilu0
    prob = smooth_problem(1, p=4.0, eps=1e-2)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    goal = FinalTimeIntegralGoal()
    u, _ = newton_solve(prob, V, random_initial_guess(V, seed=0), lcfg=DIRECT)
    factored = []
    splu, ilu = spla.splu, Ilu0.__init__

    def record_lu(A):
        factored.append(A)
        return splu(A)

    def record_ilu(self, A):
        factored.append(A)
        ilu(self, A)

    monkeypatch.setattr(spla, "splu", record_lu)
    monkeypatch.setattr(Ilu0, "__init__", record_ilu)
    _, res = solve_adjoint(V, u, goal, prob, lcfg)
    monkeypatch.undo()
    assert res.converged and len(factored) == 1
    K = assemble_jacobian(V, u, prob).toarray()
    assert not np.array_equal(K, K.T)  # the check tells K from K^T
    assert np.array_equal(factored[0].toarray(), K)


def test_adjoint_p2_equals_directly_assembled_backward_problem():
    prob = smooth_problem(1, p=2.0, eps=1.0)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    goal = FinalTimeIntegralGoal()
    u, _ = newton_solve(prob, V, zero_function(V), lcfg=DIRECT)
    z, _ = solve_adjoint(V, u, goal, prob, DIRECT)
    # backward heat operator: transposed time matrix plus stiffness on the
    # free dofs, where the constrained identity rows and columns are masked
    T = assemble_time_matrix(V)
    K = assemble_jacobian(V, u, prob)
    S = K - T
    m = V.free.astype(float)
    B = (sp.diags(m) @ (T.T + S) @ sp.diags(m) + sp.diags(1 - m)).tocsr()
    res = linear_solve(B, DIRECT)(goal.gradient(V, u))
    assert np.linalg.norm(res.x - z.coeffs) < 1e-8 * np.linalg.norm(z.coeffs)


def test_transpose_consistency():
    prob = smooth_problem(1, p=4.0, eps=0.01)
    V = FeSpace(uniform_refine(build_box_mesh(1, 2), 1), 1)
    u, _ = newton_solve(prob, V, random_initial_guess(V, seed=1), lcfg=DIRECT)
    K = assemble_jacobian(V, u, prob)
    rng = np.random.default_rng(2)
    for _ in range(5):
        w = rng.normal(size=V.n_dofs)
        z = rng.normal(size=V.n_dofs)
        a = w @ (K @ z)
        b = (K.T @ w) @ z
        assert a == pytest.approx(b, rel=1e-12)


def test_nested_iteration_reduces_newton_cost():
    prob = smooth_problem(1, p=4.0, eps=1.0)
    mesh = build_box_mesh(1, 4)
    V = FeSpace(mesh, 1)
    u, s0 = newton_solve(prob, V, random_initial_guess(V, seed=0), lcfg=DIRECT)
    mesh2 = uniform_refine(mesh, 2)
    V2 = FeSpace(mesh2, 1)
    init = transfer(u, V2)
    init.coeffs[V2.constrained] = 0.0
    _, s_nested = newton_solve(prob, V2, init, lcfg=DIRECT)
    _, s_cold = newton_solve(prob, V2, random_initial_guess(V2, seed=0),
                             lcfg=DIRECT)
    assert s_nested.newton_iters < s_cold.newton_iters


def test_lu_order_follows_the_dimension(monkeypatch):
    # minimum degree on A^T + A in symmetric mode for D >= 3, where it cuts
    # the fill; COLAMD, SuperLU's default, for D = 2
    splu, orders = solvers.spla.splu, []

    def recording(A, **kwargs):
        orders.append(kwargs)
        return splu(A, **kwargs)

    monkeypatch.setattr(solvers.spla, "splu", recording)
    for d in (2, 1):  # D = 3, then D = 2: one adjoint, one Newton factor
        prob = smooth_problem(d, p=4.0, eps=1e-5)
        V = FeSpace(build_box_mesh(d, 2), 1)
        u = random_initial_guess(V, seed=0)
        solve_adjoint(V, u, FinalTimeIntegralGoal(), prob)
        newton_solve(prob, V, u, NewtonConfig(max_iter=1), DIRECT)
    V2 = FeSpace(uniform_refine(build_box_mesh(2, 2), 1), 2)  # P2, D = 3
    K = assemble_jacobian(V2, random_initial_guess(V2, seed=3),
                          smooth_problem(2, p=4.0, eps=1e-5))
    b = np.random.default_rng(0).normal(size=K.shape[0])
    x = linear_solve(K, DIRECT, 3)(b).x
    monkeypatch.undo()
    mmd = {"permc_spec": "MMD_AT_PLUS_A", "diag_pivot_thresh": 0.1,
           "options": {"SymmetricMode": True}}
    assert orders == [mmd, mmd, {}, {}, mmd]
    x_colamd = splu(sp.csc_matrix(K)).solve(b)
    assert np.linalg.norm(x - x_colamd) <= 1e-10 * np.linalg.norm(x_colamd)
