"""End-to-end tune benchmark.

Usage::

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; the program is imported from its
``src`` directory. ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run. The last
line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``. See ``README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
SRC = CHECKOUT / "src"

from metrics import END_TO_END, PER_LAYER, WORKLOADS  # noqa: E402

#: Set-ups per run; set-up time is their median.
SETUPS = 3


def _parse(argv: list[str] | None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _tune_setup() -> float:
    """Import the program and run the warm-up tune; returns seconds."""
    t0 = time.perf_counter()
    from inputs import warmup_spec
    from tune_workloads import run_tune

    run_tune(warmup_spec())
    return time.perf_counter() - t0


def _probe_setup() -> float:
    """One more set-up, in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", "tune-cstuner", "--seed", "0", "--seconds", "0"],
        check=True, capture_output=True, text=True, cwd=str(CHECKOUT),
    ).stdout
    return float(json.loads(out.strip().splitlines()[-1])["setup_s"])


def run_tune_workload(args: argparse.Namespace) -> tuple[dict, int, int]:
    setups = [_tune_setup()]
    if args.trace:
        from tune_workloads import measure_traced

        return measure_traced(args.seed, args.seconds)
    setups += [_probe_setup() for _ in range(SETUPS - 1)]
    from tune_workloads import measure

    metrics, attempted, failed = measure(args.seed, args.seconds)
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = _peak_rss_mb()
    return metrics, attempted, failed


def run_service_workload(args: argparse.Namespace) -> tuple[dict, int, int]:
    from service_mix import ServiceRun, service_layers, start_daemon

    work = HERE / ".work" / f"{os.getpid()}"
    try:
        # The traced run drives the job list twice, so each pass gets
        # half the run length.
        run = ServiceRun(CHECKOUT, work, args.seed,
                         args.seconds / 2 if args.trace else args.seconds)
        if not args.trace:
            daemon, setups = run.setup_samples(SETUPS)
            metrics, records, failed = run.window(daemon)
            metrics["setup_s"] = statistics.median(setups)
            return metrics, len(records), failed
        daemon, _ = start_daemon(work / "plain", run.db_root, CHECKOUT)
        plain, plain_records, plain_failed = run.window(daemon)
        daemon, _ = start_daemon(work / "traced", run.db_root, CHECKOUT,
                                 traced=True)
        traced, records, failed = run.window(daemon)
        layers = service_layers(daemon, records)
        layers["trace.overhead_pct"] = 100.0 * (
            traced["tune_p50_s"] / plain["tune_p50_s"] - 1.0)
        return (layers, len(plain_records) + len(records),
                plain_failed + failed)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    # SIGTERM unwinds like an error, so every daemon the run started is
    # stopped and waited for on the way out.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no program sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        print(json.dumps({"setup_s": _tune_setup()}))
        return 0
    if args.workload == "service-mix":
        values, attempted, failed = run_service_workload(args)
    else:
        values, attempted, failed = run_tune_workload(args)
    names = PER_LAYER if args.trace else END_TO_END
    metrics = {
        # A layer a workload never enters reads 0 (README.md lists them).
        m["name"]: {"value": float(values.get(m["name"], 0.0)),
                    "unit": m["unit"]}
        for m in names
    }
    missing = [m["name"] for m in END_TO_END
               if not args.trace and m["name"] not in values]
    print(json.dumps({
        "correct": failed == 0 and not missing,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
