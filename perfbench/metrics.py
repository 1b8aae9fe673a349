"""The benchmark's metric table, read from ``BENCHMARK.json``, and the
aggregate the timing metrics share."""

from __future__ import annotations

import json
import statistics
from pathlib import Path

SPEC = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())

#: Metric entries (``name``, ``unit``, ``better`` and, end to end,
#: ``bound``): printed with ``--trace 0`` and ``--trace 1`` respectively.
END_TO_END: list[dict] = SPEC["end_to_end"]
PER_LAYER: list[dict] = SPEC["per_layer"]
WORKLOADS = tuple(w["name"] for w in SPEC["workloads"])


def tune_p50(keys: list, seconds: list[float]) -> float:
    """Median tune time of each matrix entry, geometric mean over the
    entries.

    ``keys`` names the ``(tuner, stencil, device)`` entry of each tune.
    A median over a mix of entries lands wherever the gap between
    their time ranges happens to fall; per-entry medians do not.
    """
    by_spec: dict = {}
    for key, s in zip(keys, seconds):
        by_spec.setdefault(key, []).append(s)
    return statistics.geometric_mean(
        statistics.median(v) for v in by_spec.values())
