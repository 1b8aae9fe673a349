"""Run one workload k times with seeds 0..k-1 and report each end-to-end
metric's median, quartiles and relative spread next to its bound.

Usage::

    python3 perfbench/steadiness.py --workload tune-cstuner --runs 10 \
        [--seconds 20]

The spread is ``(q3 - q1) / median`` with quartiles from
``statistics.quantiles(values, n=4)``. A metric is steady when its
spread is below a third of its bound. The exit code is 0 only when
every metric is steady and every run failed the same share of its
operations.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from metrics import END_TO_END, SPEC, WORKLOADS

HERE = Path(__file__).resolve().parent


def run_once(workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        check=True, capture_output=True, text=True, cwd=str(HERE.parent),
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    args = p.parse_args()

    runs, walls = [], []
    for seed in range(args.runs):
        t0 = time.perf_counter()
        runs.append(run_once(args.workload, seed, args.seconds))
        walls.append(time.perf_counter() - t0)
        print(f"seed {seed}: {walls[-1]:.1f} s, attempted "
              f"{runs[-1]['attempted']}, failed {runs[-1]['failed']}",
              flush=True)
    shares = sorted({r["failed"] / r["attempted"] for r in runs})
    print(f"\n{args.workload}: {args.runs} runs, seeds 0..{args.runs - 1}, "
          f"{args.seconds} s each, run wall {min(walls):.1f}-"
          f"{max(walls):.1f} s, failed shares {shares}")
    print(f"{'metric':<22}{'unit':>6}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}  steady")
    steady = len(shares) == 1
    for m in END_TO_END:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        q1, med, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / med
        ok = spread < m["bound"] / 3
        steady = steady and ok
        print(f"{m['name']:<22}{m['unit']:>6}{med:>12.5g}{q1:>12.5g}"
              f"{q3:>12.5g}{spread:>9.2%}{m['bound']:>7.2f}  "
              f"{'yes' if ok else 'NO'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
