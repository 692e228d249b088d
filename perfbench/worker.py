"""One repetition of a benchmark workload, in a fresh process.

run.py starts this script once per repetition with the BLAS and OpenMP thread
pools pinned to one thread and ``src`` on ``PYTHONPATH``.  It builds the
workload the way ``stfem --preset ...`` does, runs ``adaptive_loop`` once,
checks every level, and prints one JSON line per level followed by one line
``{"result": {...}}``.  A missing result line means the repetition crashed.

``--spawned`` is the parent's ``time.monotonic()`` just before it started
this process; the clock is system-wide, so ``setup_s`` covers interpreter
start, ``import stfem`` and problem, mesh and goal construction.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import time

from spec import WORKLOADS

# the CLI's defaults for p and the regularization
P = 4.0
EPS = 1e-5
PU_GAP_REL = 1e-10
IEFF_BAND = (0.5, 1.5)  # efficiency index of every DWR level


def build(w, seed: int):
    """Problem, goal, initial mesh and configs of a workload."""
    from stfem.adaptivity import AdaptiveConfig
    from stfem.cli import FINAL_TIME_GOAL
    from stfem.goals import FinalTimeIntegralGoal
    from stfem.mesh import build_box_mesh
    from stfem.problems import smooth_problem
    from stfem.solvers import LinearSolverConfig, NewtonConfig

    prob = smooth_problem(w.dim, p=P, eps=EPS)
    mesh = build_box_mesh(w.dim, 2)
    goal = None
    if w.dwr:
        goal = FinalTimeIntegralGoal()
        prob.exact_goal = FINAL_TIME_GOAL[w.dim]
    # the CLI's smooth_convergence preset bisects d+1 times per level
    cfg = AdaptiveConfig(mode="dwr" if w.dwr else "uniform", theta=0.5,
                         max_dofs=w.max_dofs, max_levels=40, degree=1,
                         uniform_rounds=1 if w.dwr else w.dim + 1, seed=seed)
    lcfg = LinearSolverConfig(kind=w.solver, preconditioner=w.precond)
    return prob, goal, mesh, cfg, NewtonConfig(), lcfg


def level_failures(w, rec, solves, prev_l2) -> list:
    """Names of the checks a level fails."""
    out = []
    if not rec.converged or any(kind == "newton" and not ok
                                for kind, ok in solves):
        out.append("newton_unconverged")
    if any(kind == "adjoint" and not ok for kind, ok in solves):
        out.append("adjoint_unconverged")
    if w.dwr:
        if not rec.pu_gap <= PU_GAP_REL * max(1.0, abs(rec.eta_h)):
            out.append("pu_gap")
        if not IEFF_BAND[0] <= rec.I_eff_h <= IEFF_BAND[1]:
            out.append("ieff_out_of_band")
    elif prev_l2 is not None and not rec.l2_Q_error < prev_l2:
        out.append("l2_not_decreasing")
    return out


def watch(kind: str, solves: list):
    """Wrapper factory recording whether each solve converged."""
    def make(fn):
        def watched(*args, **kwargs):
            out = fn(*args, **kwargs)
            solves.append((kind, out[1].converged))
            return out
        return watched
    return make


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--run-id", default="run")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args(argv)
    w = WORKLOADS[args.workload]

    import stfem
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    if not os.path.abspath(stfem.__file__).startswith(src + os.sep):
        print(f"stfem imported from {stfem.__file__}, not from {src}",
              file=sys.stderr)
        return 2
    from stfem import adaptivity, io
    from spans import Patches, Tracer, instrument, layer_metrics

    prob, goal, mesh, cfg, ncfg, lcfg = build(w, args.seed)
    setup_s = time.monotonic() - args.spawned

    # every Newton and adjoint solve of the current level, (kind, converged)
    solves = []
    patches = Patches()
    patches.wrap(adaptivity, "newton_solve", watch("newton", solves))
    patches.wrap(adaptivity, "solve_adjoint", watch("adjoint", solves))
    tracer = Tracer(args.run_id) if args.trace else None

    exact = prob.exact_goal
    levels = []
    t_tol = None

    def accuracy(rec):
        return abs(exact - rec.J_h) if w.dwr else rec.l2_Q_error

    def callback(level, _mesh, _space, _u, rec):
        nonlocal t_tol
        t = time.perf_counter() - t_start
        acc = accuracy(rec)
        fails = level_failures(w, rec, solves,
                               levels[-1]["l2"] if levels else None)
        if not math.isfinite(acc):
            fails.append("accuracy_not_finite")
        solves.clear()
        if t_tol is None and acc <= w.tol:
            t_tol = t
        levels.append({"level": level, "dofs": rec.dofs,
                       "newton_iters": rec.newton_iters,
                       "inner_iters": rec.inner_iters, "accuracy": acc,
                       "l2": rec.l2_Q_error, "t": t, "failures": fails})
        print(json.dumps(levels[-1]), flush=True)

    loop = adaptivity.adaptive_loop
    try:
        if tracer is not None:
            instrument(tracer, patches, prob, goal)
            callback = tracer.wrap(callback, "bench.callback")
            loop = tracer.wrap(loop, "adaptivity.loop")
        t_start = time.perf_counter()
        result = loop(prob, goal, mesh, cfg, ncfg, lcfg, callback)
        wall_s = time.perf_counter() - t_start
        io.records_to_csv(result.records, os.path.join(
            args.out_dir, f"records-{w.name}.csv"))
    finally:
        patches.restore()

    last = result.records[-1]
    if t_tol is None:  # the whole repetition failed its purpose
        for lv in levels:
            lv["failures"].append("tolerance_not_reached")
    ieff_dev = abs(last.I_eff_h - 1.0) if w.dwr else 0.0

    out = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "time_to_tol_s": t_tol if t_tol is not None else wall_s,
        "dofs_per_s": sum(lv["dofs"] for lv in levels) / wall_s,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "final_error": levels[-1]["accuracy"],
        "ieff_dev": ieff_dev,
        "failures": {lv["level"]: lv["failures"] for lv in levels
                     if lv["failures"]},
    }
    if tracer is not None:
        out["layers"] = layer_metrics(tracer.spans)
        out["layers"]["adaptivity.levels"] = len(levels)
        tracer.write(os.path.join(args.out_dir, f"spans-{args.run_id}.jsonl"))
    print(json.dumps({"result": out}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
