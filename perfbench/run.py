"""Benchmark of stfem's adaptive space-time solves.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout of the repository; stfem is imported from its ``src``.
The run repeats the workload's adaptive loop, each repetition in a fresh
process with the BLAS/OpenMP thread pools pinned to one thread, one process
at a time, until the next repetition would end after ``--seconds``; at least
three repetitions run.  The seed is forwarded to ``AdaptiveConfig.seed``
(the Newton start vector).

With ``--trace 0`` it reports the end-to-end metrics of spec.END_TO_END as
medians over the repetitions.  With ``--trace 1`` every third repetition
runs untraced and the others record spans around stfem's module boundaries
(spans.py); it reports the per-layer metrics of spec.PER_LAYER as medians
over the traced repetitions, plus the tracing overhead.  Spans and the
records CSV go to ``.bench_out/`` in the checkout.

An operation is one adaptive level; ``attempted`` and ``failed`` count
levels over all repetitions.  A level fails when one of its Newton or
adjoint solves does not converge or one of worker.py's checks fails; a
repetition that never reaches the workload's tolerance fails all its
levels; a crash fails every level it did not finish.  Every repetition
must also repeat the same levels, dofs and iteration counts, since they
all run at one seed.  The last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spec import END_TO_END, PER_LAYER, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".bench_out"
MIN_REPS = 3
DEADLINE_S = 170.0  # a run must end within 180 s
COUNT_METRICS = [n for n, unit, _b, _m in PER_LAYER if unit == "count"]


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    path = [str(ROOT / "src")]
    if env.get("PYTHONPATH"):
        path.append(env["PYTHONPATH"])
    env["PYTHONPATH"] = os.pathsep.join(path)
    return env


def run_worker(args: list, timeout: float):
    """Run worker.py once; returns (level lines, result or None, stderr)."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args,
           "--out-dir", str(OUT_DIR), "--spawned", repr(time.monotonic())]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            env=child_env(), cwd=ROOT)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        out, err = proc.communicate()
        err += f"\nkilled after {timeout:.0f} s"
    levels, result = [], None
    for line in out.splitlines():
        try:
            obj = json.loads(line)
        except json.JSONDecodeError:
            continue
        if "result" in obj:
            result = obj["result"]
        elif "level" in obj:
            levels.append(obj)
    if proc.returncode != 0:
        result = None
    return levels, result, err


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description="Time-to-accuracy benchmark of stfem's adaptive solves.")
    ap.add_argument("--workload", required=True, choices=list(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)
    if not args.seconds > 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "stfem" / "__init__.py").is_file():
        print(f"no stfem sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    OUT_DIR.mkdir(exist_ok=True)
    seconds = min(args.seconds, DEADLINE_S / 2)

    start = time.monotonic()
    reps = []  # (traced, levels, result)
    durations = []
    while True:
        elapsed = time.monotonic() - start
        if len(reps) >= MIN_REPS and \
                elapsed + statistics.fmean(durations) > seconds:
            break
        traced = bool(args.trace) and len(reps) % 3 != 0
        run_id = f"{w.name}-seed{args.seed}-rep{len(reps)}"
        t0 = time.monotonic()
        levels, result, err = run_worker(
            ["--workload", w.name, "--seed", str(args.seed),
             "--trace", str(int(traced)), "--run-id", run_id],
            DEADLINE_S - elapsed)
        durations.append(time.monotonic() - t0)
        if result is None:
            print(f"{run_id} crashed:\n{err.strip()[-2000:]}", file=sys.stderr)
        reps.append((traced, levels, result))

    attempted = failed = 0
    for _traced, levels, result in reps:
        if result is None:
            missing = max(w.ref_levels - len(levels), 1)
            attempted += len(levels) + missing
            failed += sum(1 for lv in levels if lv["failures"]) + missing
        else:
            attempted += len(levels)
            failed += len(result["failures"])
            for level, names in result["failures"].items():
                print(f"level {level} failed: {', '.join(names)}",
                      file=sys.stderr)

    done = [(t, lv, r) for t, lv, r in reps if r is not None]
    if not done:
        print("no repetition finished", file=sys.stderr)
        return 1
    signatures = {json.dumps([(lv["dofs"], lv["newton_iters"],
                               lv["inner_iters"]) for lv in levels])
                  for _t, levels, _r in done}
    traced_layers = [r["layers"] for t, _l, r in done if t]
    counts = {json.dumps([layers[n] for n in COUNT_METRICS])
              for layers in traced_layers}
    repeatable = len(signatures) == 1 and len(counts) <= 1
    if not repeatable:
        print("levels, dofs or counts differ between repetitions at one seed",
              file=sys.stderr)

    untraced = [r for t, _l, r in done if not t]
    if args.trace:
        if not traced_layers or not untraced:
            print("a traced run needs traced and untraced repetitions",
                  file=sys.stderr)
            return 1
        samples = {name: [layers[name] for layers in traced_layers]
                   for name, *_ in PER_LAYER
                   if name not in ("ieff_dev", "trace.overhead_s")}
        samples["ieff_dev"] = [r["ieff_dev"] for _t, _l, r in done]
        samples["trace.overhead_s"] = [
            statistics.median(r["wall_s"] for t, _l, r in done if t)
            - statistics.median(r["wall_s"] for r in untraced)]
        spec = [(n, u) for n, u, _b, _m in PER_LAYER]
    else:
        samples = {name: [r[name] for r in untraced]
                   for name, *_ in END_TO_END}
        spec = [(n, u) for n, u, *_ in END_TO_END]

    metrics = {}
    print(f"workload {w.name}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)} ({len(traced_layers)} traced)")
    for name, unit in spec:
        vals = samples[name]
        med = statistics.median(vals)
        q1, q3 = quartiles(vals)
        metrics[name] = {"value": med, "unit": unit}
        print(f"  {name:34s} {med:14.6g} {unit:6s} median of {len(vals)}, "
              f"quartiles {q1:.6g} .. {q3:.6g}")
    print(f"  {'failed_frac':34s} {failed / max(attempted, 1):14.6g} "
          f"       {failed} of {attempted} levels failed")
    print(json.dumps({"correct": failed == 0 and repeatable,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
