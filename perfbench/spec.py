"""Workloads and metrics of the stfem benchmark.

This module is the single description of what the benchmark runs and
reports.  ``BENCHMARK.json`` at the repository root is generated from it:

    python3 perfbench/spec.py > BENCHMARK.json

and ``perfbench/report.py`` refuses to run when the two disagree.

Each workload is one adaptive (or uniform) space-time solve, driven the way
``stfem --preset ...`` drives it.  Its dof budget is the largest at which one
loop takes at most about 10 s on one core, so a 40-second run still repeats
it three times or more and reports medians.  The ILU(0) workload stops lower,
at 107 dofs: from 149 dofs on, its adjoint GMRES solves end unconverged at
the 100-iteration cap, which the correctness gate counts as failures.  Each
workload states a tolerance on its accuracy quantity, the goal error
|J - J_h| of the final-time goal or, without a goal, the L2(Q) error; the
loop reaches it one or two levels before the budget ends.  Each ``why``
gives the workload's hot layers as self-time shares of a traced loop.

Three workloads, each with its own hot layer.  On a shared 2-vCPU virtual
machine the speed drifts by 10-20% over tens of seconds, so the time budget
of the benchmark goes to 40-second runs rather than to more workloads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

RUN_SECONDS = 40


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    dim: int
    dwr: bool                # final-time goal and DWR marking, else uniform
    solver: str              # "direct" or "gmres"
    max_dofs: int
    tol: float               # time_to_tol_s stops at accuracy <= tol
    ref_levels: int          # levels the loop runs at this budget
    precond: str = "jacobi"  # GMRES preconditioner, the CLI's default


WORKLOADS = {w.name: w for w in (
    Workload(
        "dwr_final_time_2d",
        "tol |J-J_h|<=0.13; d=2 tetrahedra, P2-enriched DWR, direct LU, to "
        "207 dofs: Jacobian assembly about 68%, source 15%, LU 2%",
        dim=2, dwr=True, solver="direct", max_dofs=207, tol=0.13,
        ref_levels=9),
    Workload(
        "uniform_smooth_1d",
        "tol L2(Q)<=2.5e-3; uniform refinement to 16641 dofs, d=1: FeSpace "
        "build about 30%, LU 15%, refine 12%; bypasses dwr, goals, marking",
        dim=1, dwr=False, solver="direct", max_dofs=16641, tol=2.5e-3,
        ref_levels=7),
    Workload(
        "dwr_final_time_1d_ilu0",
        "tol |J-J_h|<=0.08; final-time goal, d=1, GMRES with ILU(0) to 107 "
        "dofs: Ilu0 build and apply about 83%, assembly 5%; no direct LU",
        dim=1, dwr=True, solver="gmres", precond="ilu0", max_dofs=107,
        tol=0.08, ref_levels=12),
)}

# name, unit, better, bound, meaning
END_TO_END = (
    ("setup_s", "s", "lower", 0.25,
     "fresh process to loop start: import stfem, problem, mesh and goal"),
    ("wall_s", "s", "lower", 0.25,
     "wall time of adaptive_loop at the workload's dof budget"),
    ("time_to_tol_s", "s", "lower", 0.25,
     "loop start to the callback of the first level whose accuracy "
     "quantity is <= the workload's tolerance"),
    ("dofs_per_s", "1/s", "higher", 0.25,
     "primal dofs summed over all levels / wall_s"),
    ("peak_rss_mb", "MB", "lower", 0.1,
     "peak resident memory of the process that ran the loop"),
    ("final_error", "1", "lower", 0.1,
     "accuracy quantity at the last level (|J-J_h| or L2(Q) error)"),
)

# name, unit, better, which end-to-end metric it should move on which workload
PER_LAYER = (
    ("mesh.refine_s", "s", "lower",
     "wall_s on uniform_smooth_1d (about 11%); under 2% on the DWR workloads"),
    ("mesh.elements_out", "count", "lower",
     "elements of the refined meshes; with wall_s on uniform_smooth_1d"),
    ("spaces.build_s", "s", "lower",
     "FeSpace construction and enrich: wall_s and dofs_per_s on "
     "uniform_smooth_1d"),
    ("spaces.batch_s", "s", "lower",
     "quadrature tabulation incl. simplex_rule: wall_s, dofs_per_s on "
     "uniform_smooth_1d"),
    ("spaces.transfer_s", "s", "lower",
     "transfer and inject: wall_s, dofs_per_s on uniform_smooth_1d"),
    ("spaces.error_norms_s", "s", "lower",
     "wall_s, dofs_per_s on uniform_smooth_1d"),
    ("problems.source_s", "s", "lower", "wall_s on dwr_final_time_2d"),
    ("problems.source_points", "count", "lower",
     "wall_s on dwr_final_time_2d"),
    ("assembly.jacobian_s", "s", "lower",
     "wall_s, time_to_tol_s on dwr_final_time_2d; no change on "
     "dwr_final_time_1d_ilu0"),
    ("assembly.jacobian_calls", "count", "lower", "as assembly.jacobian_s"),
    ("assembly.jacobian_qp_per_s", "1/s", "higher",
     "element x quadrature points per second of Jacobian self time; "
     "as assembly.jacobian_s"),
    ("assembly.jacobian_mb_computed", "MB", "lower",
     "computed from array sizes, cache traffic ignored; "
     "as assembly.jacobian_s"),
    ("assembly.residual_s", "s", "lower", "as assembly.jacobian_s"),
    ("assembly.residual_calls", "count", "lower", "as assembly.jacobian_s"),
    ("assembly.residual_qp_per_s", "1/s", "higher", "as assembly.jacobian_s"),
    ("assembly.form_values_s", "s", "lower",
     "the two *_form_element_values used for localization; "
     "as assembly.jacobian_s"),
    ("goals.eval_s", "s", "lower",
     "the DWR workloads; zero on uniform_smooth_1d"),
    ("goals.calls", "count", "lower",
     "the DWR workloads; zero on uniform_smooth_1d"),
    ("solvers.newton_self_s", "s", "lower",
     "wall_s everywhere, slightly"),
    ("solvers.newton_iters", "count", "lower",
     "wall_s everywhere; the seed moves the first level's count"),
    ("solvers.newton_unconverged", "count", "lower",
     "zero at this commit on every workload"),
    ("solvers.line_search_trials", "count", "lower",
     "trial residuals; wall_s everywhere"),
    ("solvers.line_search_accept_ratio", "ratio", "higher",
     "accepted steps / trial residuals; wall_s everywhere"),
    ("solvers.linear_s", "s", "lower",
     "direct LU lives here: wall_s on uniform_smooth_1d"),
    ("solvers.linear_calls", "count", "lower",
     "wall_s on uniform_smooth_1d"),
    ("solvers.adjoint_s", "s", "lower",
     "transposing the adjoint system: wall_s on the DWR workloads; zero "
     "on uniform_smooth_1d"),
    ("solvers.precond_setup_s", "s", "lower",
     "Ilu0 build: wall_s on dwr_final_time_1d_ilu0 only; zero on direct"),
    ("solvers.precond_apply_s", "s", "lower",
     "Ilu0.solve, the triangular solves inside GMRES: wall_s on "
     "dwr_final_time_1d_ilu0 only; zero on direct"),
    ("solvers.gmres_s", "s", "lower",
     "GMRES less the preconditioner: wall_s on dwr_final_time_1d_ilu0 "
     "only; zero on direct"),
    ("solvers.gmres_iters", "count", "lower",
     "wall_s on dwr_final_time_1d_ilu0 only; zero on direct"),
    ("solvers.gmres_converged_ratio", "ratio", "higher",
     "converged / GMRES calls on dwr_final_time_1d_ilu0; zero on direct"),
    ("dwr.enriched_solve_s", "s", "lower",
     "inclusive time of Newton and adjoint on the P2 space: time_to_tol_s "
     "on the DWR workloads; zero on uniform_smooth_1d"),
    ("dwr.estimate_s", "s", "lower",
     "inclusive time of estimate: time_to_tol_s on the DWR workloads; "
     "zero on uniform_smooth_1d"),
    ("dwr.overhead_ratio", "ratio", "lower",
     "(enriched + estimate) / inclusive primal Newton time: time_to_tol_s "
     "on the DWR workloads; zero on uniform_smooth_1d"),
    ("ieff_dev", "1", "lower",
     "|I_eff_h - 1| at the last level of the DWR workloads; zero on "
     "uniform_smooth_1d, which has no estimator"),
    ("adaptivity.levels", "count", "lower", "wall_s everywhere, slightly"),
    ("adaptivity.mark_s", "s", "lower", "wall_s everywhere, slightly"),
    ("adaptivity.self_s", "s", "lower", "wall_s everywhere, slightly"),
    ("io.csv_s", "s", "lower",
     "records_to_csv of the run's records to a file; outside wall_s"),
    ("trace.overhead_s", "s", "lower",
     "traced wall_s minus untraced wall_s (medians); cost of tracing, "
     "not of stfem"),
)


def benchmark_json() -> dict:
    """The content of BENCHMARK.json."""
    return {
        "command": ["python3", "perfbench/run.py"],
        "paths": ["perfbench"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": w.name, "why": w.why}
                      for w in WORKLOADS.values()],
        "end_to_end": [{"name": n, "unit": u, "better": b, "bound": bound}
                       for n, u, b, bound, _ in END_TO_END],
        "per_layer": [{"name": n, "unit": u, "better": b}
                      for n, u, b, _ in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
