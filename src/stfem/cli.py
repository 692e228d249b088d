"""Command-line experiment driver.

Presets reproduce the three study setups at desk scale: uniform convergence
of the manufactured smooth solution, goal-oriented adaptivity for the linear
final-time functional, and for the nonlinear gradient-energy functional over
an element-aligned region of interest.  Each run emits one CSV row per level
and prints observed convergence orders and final efficiency indices.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass

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


@dataclass
class RunConfig:
    preset: str = "smooth_convergence"
    dim: int = 1
    p: float = 4.0
    epsilon: float = 1e-5
    degree: int = 1
    mode: str = None  # None -> preset default
    theta: float = 0.5
    max_dofs: int = 20_000
    max_levels: int = 40
    initial_cells: int = 2
    solver: str = "direct"
    precond: str = "jacobi"
    goal: str = None  # custom preset only
    out_csv: str = None
    out_vtk_dir: str = None
    seed: int = 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="stfem",
        description="Goal-oriented adaptive space-time experiments for the "
                    "regularized parabolic p-Laplacian on the unit box.")
    p.add_argument("--preset", default="smooth_convergence",
                   choices=["smooth_convergence", "linear_goal",
                            "nonlinear_goal", "custom"])
    p.add_argument("--dim", type=int, default=1, choices=[1, 2],
                   help="spatial dimension d (space-time meshes are d+1)")
    p.add_argument("--p", type=float, default=4.0, dest="p",
                   help="p-Laplacian exponent, > 1")
    p.add_argument("--epsilon", type=float, default=1e-5,
                   help="regularization parameter, > 0")
    p.add_argument("--degree", type=int, default=1, choices=[1, 2])
    p.add_argument("--mode", choices=["uniform", "dwr"], default=None)
    p.add_argument("--theta", type=float, default=0.5,
                   help="Doerfler marking fraction in (0,1]")
    p.add_argument("--max-dofs", type=int, default=20_000)
    p.add_argument("--max-levels", type=int, default=40)
    p.add_argument("--initial-cells", type=int, default=2,
                   help="cells per axis of the initial grid")
    p.add_argument("--solver", choices=["gmres", "direct"], default="direct")
    p.add_argument("--precond", choices=["none", "jacobi", "ilu0"],
                   default="jacobi",
                   help="GMRES preconditioner; ilu0 is SuperLU's threshold "
                        "incomplete LU with drop tolerance 1e-4 (the name "
                        "is kept for existing scripts)")
    p.add_argument("--goal", choices=["final_time", "region_energy", "none"],
                   default=None, help="goal functional (custom preset)")
    p.add_argument("--out-csv", default=None)
    p.add_argument("--out-vtk-dir", default=None,
                   help="per-level VTK dumps (off by default)")
    p.add_argument("--seed", type=int, default=0)
    return p


def _setup(config: RunConfig):
    """Problem, goal, initial mesh, and loop configuration for a run."""
    d = config.dim
    prob = smooth_problem(d, p=config.p, eps=config.epsilon)
    preset = config.preset

    if preset == "smooth_convergence":
        goal_kind = "none"
        mode = config.mode or "uniform"
    elif preset == "linear_goal":
        goal_kind = "final_time"
        mode = config.mode or "dwr"
    elif preset == "nonlinear_goal":
        goal_kind = "region_energy"
        mode = config.mode or "dwr"
    else:
        goal_kind = config.goal or "final_time"
        mode = config.mode or "dwr"

    region = None
    if goal_kind == "region_energy":
        mesh, region = build_region_mesh(d)
        goal = RegionEnergyGoal(region, config.p, mesh)
        if config.p == 4.0:
            prob.exact_goal = REGION_GOAL_P4[d]
    else:
        mesh = build_box_mesh(d, config.initial_cells)
        if goal_kind == "final_time":
            goal = FinalTimeIntegralGoal()
            prob.exact_goal = FINAL_TIME_GOAL[d]
        else:
            goal = None
            mode = "uniform"

    rounds = (d + 1) if (mode == "uniform" and preset == "smooth_convergence") \
        else 1
    cfg = AdaptiveConfig(mode=mode, theta=config.theta,
                         max_dofs=config.max_dofs,
                         max_levels=config.max_levels, degree=config.degree,
                         uniform_rounds=rounds, seed=config.seed)
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


def run(config: RunConfig) -> int:
    """Execute one experiment; returns the process exit code.

    A ``ValueError`` or ``MeshError`` from the set-up (an invalid
    configuration) propagates.  One raised inside the adaptive loop is a
    numerical failure: it is printed and the exit code is 1.
    """
    prob, goal, mesh, cfg = _setup(config)
    ncfg = NewtonConfig()
    lcfg = LinearSolverConfig(kind=config.solver,
                              preconditioner=config.precond)

    callback = None
    if config.out_vtk_dir:
        os.makedirs(config.out_vtk_dir, exist_ok=True)

        def callback(level, mesh_l, space, u, rec):
            pd = {"u": u.coeffs[:mesh_l.n_vertices]}
            cd = {}
            if rec.indicators is not None:
                cd["indicator"] = rec.indicators
            write_vtk(os.path.join(config.out_vtk_dir, f"level_{level:03d}.vtk"),
                      mesh_l, point_data=pd, cell_data=cd)

    try:
        result = adaptive_loop(prob, goal, mesh, cfg, ncfg, lcfg, callback)
    except (ValueError, MeshError) as exc:  # e.g. non-finite indicators
        print(f"error: {exc}", file=sys.stderr)
        return 1
    records = result.records

    footer = [f"preset={config.preset} d={config.dim} p={config.p} "
              f"eps={config.epsilon} k={config.degree} mode={cfg.mode} "
              f"theta={cfg.theta} solver={config.solver} seed={config.seed}"]
    if prob.exact_goal is not None:
        footer.append(f"exact goal value {prob.exact_goal:.17g}")
    rate_lines = report_rates(records, config.dim) if len(records) >= 3 else []
    footer.extend(rate_lines)

    text = records_to_csv(records, config.out_csv, footer)
    if config.out_csv:
        print(f"wrote {config.out_csv}")
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
    return 0 if result.converged else 1


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    config = RunConfig(preset=args.preset, dim=args.dim, p=args.p,
                       epsilon=args.epsilon, degree=args.degree,
                       mode=args.mode, theta=args.theta,
                       max_dofs=args.max_dofs, max_levels=args.max_levels,
                       initial_cells=args.initial_cells, solver=args.solver,
                       precond=args.precond, goal=args.goal,
                       out_csv=args.out_csv, out_vtk_dir=args.out_vtk_dir,
                       seed=args.seed)
    try:
        return run(config)
    except (ValueError, MeshError) as exc:  # invalid configuration
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
