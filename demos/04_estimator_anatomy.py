"""Anatomy of the dual-weighted residual estimate on one mesh level.

Four solves feed the estimator: the nonlinear primal problem and the linear
(backward-in-time) adjoint problem, each in the working space and in a
degree-enriched space on the same mesh.  The estimator splits into a primal
part, an adjoint part, and an iteration part that vanishes at converged
solves; the partition-of-unity localization telescopes exactly.
"""

import numpy as np

from stfem import (FeSpace, FinalTimeIntegralGoal, LinearSolverConfig,
                   build_box_mesh, efficiency, enrich, estimate, inject,
                   newton_solve, random_initial_guess, smooth_problem,
                   solve_adjoint, uniform_refine)

EXACT = 2.0 * np.e / np.pi
prob = smooth_problem(d=1, p=4.0, eps=1e-5)
goal = FinalTimeIntegralGoal()
lcfg = LinearSolverConfig(kind="direct")

mesh = uniform_refine(build_box_mesh(1, 2), 3)
V = FeSpace(mesh, 1)
u, su = newton_solve(prob, V, random_initial_guess(V, seed=0), lcfg=lcfg)
z, _ = solve_adjoint(V, u, goal, prob, lcfg)
V2 = enrich(V)
u2, s2 = newton_solve(prob, V2, inject(u, V2), lcfg=lcfg)
z2, _ = solve_adjoint(V2, u2, goal, prob, lcfg)
print(f"primal solve: {su.newton_iters} Newton steps on {V.n_dofs} dofs; "
      f"enriched: {s2.newton_iters} steps on {V2.n_dofs} dofs")

bd = estimate(prob, goal, u, z, u2, z2)
J_h = goal.value(u)
err = EXACT - J_h
print(f"\nJ(u) - J(u_h)      = {err:+.6e}   (exact goal error)")
print(f"primal part        = {bd.eta_h_p:+.6e}")
print(f"adjoint part       = {bd.eta_h_a:+.6e}")
print(f"estimator eta_h    = {bd.eta_h:+.6e}")
print(f"iteration part     = {bd.eta_k:+.2e}   (solver tolerance scale)")
print(f"localized sum      = {bd.local.sum():+.6e}   "
      f"(telescopes to eta_h, gap {abs(bd.local.sum() - bd.eta_h):.1e})")
ih, ip, ia = efficiency(bd, EXACT, J_h)
print(f"efficiency indices: I_eff_h = {ih:.4f}, primal {ip:.4f}, "
      f"adjoint {ia:.4f}")

worst = np.argsort(-np.abs(bd.local))[:5]
print("\nlargest element indicators sit near the top face:")
for e in worst:
    x, t = mesh.barycenters()[e]
    print(f"  element {e:4d} at (x={x:.3f}, t={t:.3f}): {bd.local[e]:+.3e}")
