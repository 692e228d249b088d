"""Command-line experiment driver.

Presets reproduce the three study setups at desk scale: uniform convergence
of the manufactured smooth solution, goal-oriented adaptivity for the linear
final-time functional, and for the nonlinear gradient-energy functional over
an element-aligned region of interest.  Each run emits one CSV row per level
and prints observed convergence orders and final efficiency indices.

The parser is the one description of a run: ``main(argv)`` or
``run(build_parser().parse_args(argv))`` runs it.  A flag the run would not
use is a usage error: ``--goal`` outside ``custom``, ``--mode dwr`` without a
goal, ``--initial-cells`` with the region goal, whose mesh is fixed,
and ``--theta`` outside dwr mode.  A run exits 1 naming each level that did
not converge.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .adaptivity import AdaptiveConfig, adaptive_loop
from .goals import FinalTimeIntegralGoal, RegionEnergyGoal
from .io import records_to_csv, write_vtk
from .mesh import MeshError, build_box_mesh, build_region_mesh
from .problems import smooth_problem
from .solvers import LinearSolverConfig, NewtonConfig

# exact goal values for the manufactured solution (final-time goal in closed
# form; region goals frozen from a high-order quadrature oracle)
FINAL_TIME_GOAL = {1: 2.0 * np.e / np.pi, 2: 4.0 * np.e / np.pi ** 2}
REGION_GOAL_P4 = {1: 0.011016424135601978, 2: 0.019371265989845886}

# preset -> (goal, default mode); "custom" takes its goal from --goal
PRESETS = {"smooth_convergence": ("none", "uniform"),
           "linear_goal": ("final_time", "dwr"),
           "nonlinear_goal": ("region_energy", "dwr"),
           "custom": ("final_time", "dwr")}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stfem",
        description="Goal-oriented adaptive space-time experiments for the "
                    "regularized parabolic p-Laplacian on the unit box.")
    p.add_argument("--preset", default="smooth_convergence",
                   choices=list(PRESETS))
    p.add_argument("--dim", type=int, default=1, choices=[1, 2],
                   help="spatial dimension d (space-time meshes are d+1)")
    p.add_argument("--p", type=float, default=4.0, dest="p",
                   help="p-Laplacian exponent, > 1")
    p.add_argument("--epsilon", type=float, default=1e-5,
                   help="regularization parameter, > 0")
    p.add_argument("--degree", type=int, default=1, choices=[1, 2])
    p.add_argument("--mode", choices=["uniform", "dwr"], default=None)
    p.add_argument("--theta", type=float, default=None,
                   help="Doerfler marking fraction in (0,1], dwr mode (0.5)")
    p.add_argument("--max-dofs", type=int, default=20_000)
    p.add_argument("--max-levels", type=int, default=40)
    p.add_argument("--initial-cells", type=int, default=None,
                   help="cells per axis of the initial box grid (default 2)")
    p.add_argument("--solver", choices=["gmres", "direct"], default="direct",
                   help="gmres is preconditioned by an incomplete LU")
    p.add_argument("--goal", choices=["final_time", "region_energy", "none"],
                   default=None, help="goal functional (custom preset)")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-vtk-dir", default=None,
                   help="per-level VTK dumps (off by default)")
    p.add_argument("--seed", type=int, default=0)
    return p


def _setup(args: argparse.Namespace):
    """Problem, goal, initial mesh, and loop configuration for a run.

    Raises ``ValueError`` for a flag that this run would not use.
    """
    d = args.dim
    prob = smooth_problem(d, p=args.p, eps=args.epsilon)
    goal_kind, mode = PRESETS[args.preset]
    if args.goal is not None:
        if args.preset != "custom":
            raise ValueError(f"--goal applies to the custom preset only, "
                             f"not to {args.preset}")
        goal_kind = args.goal
    mode = args.mode or ("uniform" if goal_kind == "none" else mode)
    if mode == "dwr" and goal_kind == "none":
        raise ValueError("--mode dwr needs a goal functional")
    if args.theta is not None and mode != "dwr":
        raise ValueError("--theta applies to dwr mode only")
    csv_dir = os.path.dirname(args.out_csv or "") or "."
    if not os.path.isdir(csv_dir):
        raise ValueError(f"--out-csv: no directory {csv_dir}")

    if goal_kind == "region_energy":
        if args.initial_cells is not None:
            raise ValueError("--initial-cells does not apply to the region "
                             "goal, whose initial mesh is fixed")
        mesh, region = build_region_mesh(d)
        goal = RegionEnergyGoal(region, args.p, mesh)
        if args.p == 4.0:
            prob.exact_goal = REGION_GOAL_P4[d]
    else:
        cells = 2 if args.initial_cells is None else args.initial_cells
        mesh = build_box_mesh(d, cells)
        goal = None
        if goal_kind == "final_time":
            goal = FinalTimeIntegralGoal()
            prob.exact_goal = FINAL_TIME_GOAL[d]

    rounds = d + 1 if args.preset == "smooth_convergence" else 1
    theta = AdaptiveConfig.theta if args.theta is None else args.theta
    cfg = AdaptiveConfig(mode=mode, theta=theta, max_dofs=args.max_dofs,
                         max_levels=args.max_levels, degree=args.degree,
                         uniform_rounds=rounds, seed=args.seed)
    return prob, goal, mesh, cfg


def report_rates(records: list, d: int) -> list[str]:
    """Observed convergence orders from a list of ConvergenceRecords.

    For each error-like quantity the least-squares slope of log|e| against
    log dofs is reported together with the implied orders in the mesh size,
    using both h = dofs^(-1/(d+1)) (dimensionally consistent for space-time
    meshes) and h = dofs^(-1/d); per-step orders are consecutive-level log2
    ratios against h = dofs^(-1/(d+1)).
    """
    if len(records) < 3:
        raise ValueError("need at least 3 records to estimate rates")
    lines = []
    dofs = np.array([r.dofs for r in records], dtype=float)
    for name in ("l2_Q_error", "l2_h1_error", "J_error", "eta_h"):
        vals = np.array([abs(getattr(r, name)) for r in records])
        ok = np.isfinite(vals) & (vals > 0)
        if ok.sum() < 3:
            continue
        slope = np.polyfit(np.log(dofs[ok]), np.log(vals[ok]), 1)[0]
        steps = []
        v, n = vals[ok], dofs[ok]
        for i in range(1, len(v)):
            steps.append(np.log(v[i - 1] / v[i])
                         / np.log((n[i] / n[i - 1]) ** (1.0 / (d + 1))))
        step_str = " ".join(f"{s:.2f}" for s in steps)
        lines.append(
            f"{name}: slope vs dofs {slope:+.3f}  "
            f"order(h=N^-1/{d + 1}) {-slope * (d + 1):.2f}  "
            f"order(h=N^-1/{d}) {-slope * d:.2f}  steps [{step_str}]")
    return lines


def run(args: argparse.Namespace) -> int:
    """Execute one experiment; returns the process exit code.

    A ``ValueError`` or ``MeshError`` from the set-up (an invalid
    configuration) propagates.  One raised inside the adaptive loop is a
    numerical failure: it is printed and the exit code is 1.
    """
    prob, goal, mesh, cfg = _setup(args)
    ncfg = NewtonConfig()
    lcfg = LinearSolverConfig(kind=args.solver)

    callback = None
    if args.out_vtk_dir:
        os.makedirs(args.out_vtk_dir, exist_ok=True)

        def callback(level, mesh_l, space, u, rec):
            pd = {"u": u.coeffs[:mesh_l.n_vertices]}
            cd = {}
            if rec.indicators is not None:
                cd["indicator"] = rec.indicators
            write_vtk(os.path.join(args.out_vtk_dir, f"level_{level:03d}.vtk"),
                      mesh_l, point_data=pd, cell_data=cd)

    try:
        result = adaptive_loop(prob, goal, mesh, cfg, ncfg, lcfg, callback)
    except (ValueError, MeshError) as exc:  # e.g. non-finite indicators
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = result.records

    footer = [f"preset={args.preset} d={args.dim} p={args.p} "
              f"eps={args.epsilon} k={args.degree} mode={cfg.mode} "
              f"theta={cfg.theta} solver={args.solver} seed={args.seed}"]
    if prob.exact_goal is not None:
        footer.append(f"exact goal value {prob.exact_goal:.17g}")
    rate_lines = report_rates(records, args.dim) if len(records) >= 3 else []
    footer.extend(rate_lines)

    text = records_to_csv(records, args.out_csv, footer)
    if args.out_csv:
        print(f"wrote {args.out_csv}")
    else:
        print(text, end="")

    print(f"levels: {len(records)}, final dofs: {records[-1].dofs}")
    if prob.exact_goal is not None:
        print(f"target J(u) = {prob.exact_goal:.17g}")
        print(f"final  J_h  = {records[-1].J_h:.17g}   "
              f"error = {records[-1].J_error:.3e}")
    last = records[-1]
    if np.isfinite(last.I_eff_h):
        print(f"final efficiency indices: I_eff_h={last.I_eff_h:.4f} "
              f"I_eff_p={last.I_eff_p:.4f} I_eff_a={last.I_eff_a:.4f}")
    for line in rate_lines:
        print(line)
    for rec in records:
        if not rec.converged:
            print(f"error: level {rec.level} ({rec.dofs} dofs) did not "
                  "converge", file=sys.stderr)
    return 0 if result.converged else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(args)
    except (ValueError, MeshError) as exc:  # invalid configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
