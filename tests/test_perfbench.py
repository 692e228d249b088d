"""The benchmark's worker runs against the library as it is: it wraps
stfem's call sites by name, so a renamed or bypassed call site shows here as
a failed run or a layer that reads zero."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).parents[1]


def run_worker(tmp_path, workload: str, trace: int) -> list:
    """One worker repetition at seed 7; its stdout as JSON lines."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", workload, "--seed", "7", "--trace", str(trace),
         "--out-dir", str(tmp_path), "--spawned", repr(time.monotonic())],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()]


def test_traced_worker_sees_every_wrapped_layer(tmp_path):
    result = run_worker(tmp_path, "dwr_final_time_1d_ilu0", 1)[-1]["result"]
    assert result["failures"] == {}
    layers = result["layers"]
    for name in ("goals.calls", "assembly.form_values_s",
                 "solvers.precond_setup_s", "dwr.estimate_s"):
        assert layers[name] > 0, name


def test_untraced_2d_worker_passes_every_level_check(tmp_path):
    # the d=2 final-time workload as the benchmark runs it: every level's
    # I_eff band, partition-of-unity gap and solver convergence hold
    lines = run_worker(tmp_path, "dwr_final_time_2d", 0)
    assert lines[-1]["result"]["failures"] == {}
    assert len(lines) - 1 == 9  # one line per level, then the result


def test_untraced_uniform_worker_passes_every_level_check(tmp_path):
    # uniform refinement in d=1 as the benchmark runs it: every Newton
    # solve converges, the L2 error falls on every level and the last level
    # meets the tolerance
    lines = run_worker(tmp_path, "uniform_smooth_1d", 0)
    assert lines[-1]["result"]["failures"] == {}
    assert len(lines) - 1 == 7


def test_traced_uniform_worker_reads_the_form_order(tmp_path):
    # the spans count assembly points at FeSpace.default_order() when a
    # wrapped call passes no order: 12 points per triangle at order 6
    result = run_worker(tmp_path, "uniform_smooth_1d", 1)[-1]["result"]
    assert result["failures"] == {}
    layers = result["layers"]
    assert layers["problems.source_points"] == 524256
    assert layers["assembly.residual_qp_per_s"] > 0
    assert layers["assembly.jacobian_calls"] > 0
