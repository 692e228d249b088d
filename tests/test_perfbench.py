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


def test_traced_worker_sees_every_wrapped_layer(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"),
         "--workload", "dwr_final_time_1d_ilu0", "--seed", "7", "--trace", "1",
         "--out-dir", str(tmp_path), "--spawned", repr(time.monotonic())],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])["result"]
    assert result["failures"] == {}
    layers = result["layers"]
    for name in ("goals.calls", "assembly.form_values_s",
                 "solvers.precond_setup_s", "dwr.estimate_s"):
        assert layers[name] > 0, name
