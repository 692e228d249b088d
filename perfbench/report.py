"""Run the benchmark on every workload and print every metric by name.

    python3 perfbench/report.py                 # one run per workload
    python3 perfbench/report.py --seeds 10      # ten seeds: medians, spreads
    python3 perfbench/report.py --trace         # also per-layer metrics

For each workload it prints each end-to-end metric with its unit, the
failed fraction of adaptive levels and whether run.py's correctness gate
passed.  With several seeds it also prints each metric's quartile spread,
(q3 - q1) / median over the runs: "steady" below a third of the metric's
bound, "within bound" up to the bound; a spread beyond the bound fails.
With ``--trace`` it makes two traced runs at one seed, prints the per-layer
metrics of the first, and checks that every count repeats exactly.  It first
checks that BENCHMARK.json matches spec.py.  Runs go one at a time.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from spec import END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run(workload: str, seed: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(RUN_SECONDS),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} trace {trace} failed:\n"
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", choices=list(WORKLOADS),
                    default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=1)
    ap.add_argument("--first-seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args(argv)

    on_disk = json.loads((ROOT / "BENCHMARK.json").read_text())
    if on_disk != benchmark_json():
        print("BENCHMARK.json differs from spec.py; regenerate it with "
              "python3 perfbench/spec.py > BENCHMARK.json", file=sys.stderr)
        return 1

    ok = True
    for name in args.workloads:
        runs = [run(name, args.first_seed + i, 0)
                for i in range(args.seeds)]
        attempted = sum(r["attempted"] for r in runs)
        failed = sum(r["failed"] for r in runs)
        correct = all(r["correct"] for r in runs)
        ok = ok and correct
        print(f"{name}  ({args.seeds} run(s), seeds {args.first_seed}.."
              f"{args.first_seed + args.seeds - 1})  {WORKLOADS[name].why}")
        for metric, unit, _better, bound, meaning in END_TO_END:
            values = [r["metrics"][metric]["value"] for r in runs]
            median = statistics.median(values)
            line = f"  {metric:14s} {median:12.6g} {unit:4s}"
            if len(values) >= 2:
                q1, _q2, q3 = statistics.quantiles(values, n=4)
                s = (q3 - q1) / median
                verdict = "steady" if s < bound / 3 else \
                    "within bound" if s <= bound else "OUT OF BOUND"
                ok = ok and s <= bound
                line += (f"  q1 {q1:.6g} q3 {q3:.6g}  spread {s:.3f}  "
                         f"bound {bound:.2f}  {verdict}")
            print(f"{line}  {meaning}")
        print(f"  {'failed_frac':14s} {failed / attempted:12.6g}       "
              f"{failed} of {attempted} levels; correctness gate "
              f"{'passed' if correct else 'FAILED'}")

        if args.trace:
            first, second = (run(name, args.first_seed, 1)
                             for _ in range(2))
            for metric, unit, _better, moves in PER_LAYER:
                value = first["metrics"][metric]["value"]
                print(f"  {metric:34s} {value:12.6g} {unit:5s}  {moves}")
            differ = [m for m, unit, *_ in PER_LAYER if unit == "count"
                      and first["metrics"][m] != second["metrics"][m]]
            repeat = not differ and first["correct"] and second["correct"]
            ok = ok and repeat
            print(f"  counts of two traced runs at seed {args.first_seed}: "
                  f"{'repeat exactly' if repeat else 'DIFFER ' + str(differ)}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
