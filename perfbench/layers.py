"""Per-layer attribution for the traced run.

Spans are recorded from the benchmark's own files: each wrapper below
replaces a public function at the name its caller looks up (for
example ``repro.core.tuner.pairwise_cv``, which the tuner imports by
name) and adds the call's inclusive wall time and call count to a
:class:`Recorder`. A wrapper can also record how far named
``repro.obs`` counters moved during the call, which is how simulator
batches are attributed to grouping. The program's own ``phase.*``
spans and registry counters are read beside them.
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from typing import Any, Callable

from repro import obs


class Recorder:
    """Thread-safe totals of wrapped calls (seconds, calls, counters)."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.seconds: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counter_deltas: dict[str, float] = defaultdict(float)
        self._undo: list[tuple[Any, str, Any]] = []

    def add(self, key: str, seconds: float, calls: int = 1) -> None:
        with self._lock:
            self.seconds[key] += seconds
            self.calls[key] += calls

    def add_counter(self, key: str, value: float) -> None:
        with self._lock:
            self.counter_deltas[key] += value

    def wrap(
        self,
        owner: Any,
        attr: str,
        key: str,
        *,
        counters: tuple[str, ...] = (),
        after: Callable[[Any, tuple, float], None] | None = None,
    ) -> None:
        """Replace ``owner.attr`` by a timing wrapper under ``key``.

        ``counters`` are registry counters whose movement during the
        call is added as ``<key>:<counter>``; ``after(result, args,
        seconds)`` sees every finished call.
        """
        original = getattr(owner, attr)
        registry = obs.get_registry()
        rec = self

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            before = [registry.counters(c).get(c, 0.0) for c in counters]
            t0 = time.perf_counter()
            try:
                return_value = original(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                rec.add(key, dt)
                for c, b in zip(counters, before):
                    rec.add_counter(f"{key}:{c}",
                                    registry.counters(c).get(c, 0.0) - b)
            if after is not None:
                after(return_value, args, dt)
            return return_value

        setattr(owner, attr, wrapper)
        self._undo.append((owner, attr, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def snapshot(self) -> dict[str, Any]:
        with self._lock:
            return {
                "seconds": dict(self.seconds),
                "calls": dict(self.calls),
                "counters": dict(self.counter_deltas),
            }


_SIM_COUNTERS = ("sim.batch_calls", "sim.batch_settings")


def install_tune_wrappers(rec: Recorder) -> None:
    """Wrap the tune-path layers at the names their callers use."""
    import repro.core.sampling as sampling
    import repro.core.tuner as tuner
    from repro.baselines.base import BaselineTuner
    from repro.core.genetic import EvolutionarySearch
    from repro.gpusim.simulator import GpuSimulator
    from repro.profiler.nsight import NsightCollector

    rec.wrap(NsightCollector, "collect_dataset", "profiler.dataset")
    rec.wrap(tuner, "pairwise_cv", "grouping", counters=_SIM_COUNTERS)
    rec.wrap(tuner, "group_parameters", "grouping", counters=_SIM_COUNTERS)
    rec.wrap(tuner, "sample_search_space", "sampling")
    rec.wrap(sampling, "fit_pmnf", "ml.fit_pmnf")
    rec.wrap(tuner, "generate_cuda", "codegen")
    rec.wrap(EvolutionarySearch, "run", "search")
    rec.wrap(BaselineTuner, "tune", "search")
    rec.wrap(GpuSimulator, "run_batch", "sim.run_batch")


def install_service_wrappers(rec: Recorder) -> dict[str, dict[str, float]]:
    """Wrap the daemon-side layers; returns the per-job timestamp map
    (``submit``/``claim`` by job id) the queue wrappers fill in."""
    import repro.service.scheduler as scheduler
    from repro.parallel.pool import WorkerPool
    from repro.resultsdb.db import ResultsDB
    from repro.service.queue import JobQueue

    stamps: dict[str, dict[str, float]] = defaultdict(dict)
    lock = threading.Lock()

    def on_submit(result: Any, _args: tuple, _dt: float) -> None:
        job, created = result
        if created:
            with lock:
                stamps[job.id]["submit"] = time.perf_counter()

    def on_claim(job: Any, _args: tuple, _dt: float) -> None:
        if job is not None:
            with lock:
                stamps[job.id].setdefault("claim", time.perf_counter())

    def on_serve(record: Any, _args: tuple, _dt: float) -> None:
        if record is not None:
            rec.add("resultsdb.golden_hits", 0.0)

    def on_execute(_result: Any, args: tuple, dt: float) -> None:
        with lock:
            stamps[args[0]].update(exec_s=dt, end=time.perf_counter())

    def on_map(_results: Any, _args: tuple, dt: float) -> None:
        # Worker spans were merged into this process's tracer by the
        # pool; drain them so each map call sees only its own.
        spans = obs.get_tracer().drain()
        for name, seconds, count, settings in aggregate_spans(spans):
            rec.add(f"span:{name}", seconds, count)
            if settings:
                rec.add_counter(f"span:{name}:n", settings)

    rec.wrap(ResultsDB, "serve", "resultsdb.serve", after=on_serve)
    rec.wrap(WorkerPool, "map", "pool.map", after=on_map)
    rec.wrap(JobQueue, "submit", "queue.submit", after=on_submit)
    rec.wrap(JobQueue, "claim_next", "queue.claim_next", after=on_claim)
    rec.wrap(JobQueue, "transition", "queue.transition")
    rec.wrap(scheduler, "execute_job", "service.execute_job", after=on_execute)
    return stamps


def aggregate_spans(spans: list[dict]) -> list[tuple[str, float, int, float]]:
    """``(name, seconds, count, sum of n attrs)`` per span name, over
    span dicts as ``Tracer.drain`` returns them.

    A span nested inside a span of the same name (``phase.measurement``
    inside a batched ``phase.measurement``) is skipped, so seconds are
    never counted twice.
    """
    by_id = {(s["pid"], s["span_id"]): s for s in spans}
    out: dict[str, list[float]] = {}
    for s in spans:
        parent = by_id.get((s["pid"], s["parent_id"]))
        if parent is not None and parent["name"] == s["name"]:
            continue
        acc = out.setdefault(s["name"], [0.0, 0, 0.0])
        acc[0] += s["duration_s"]
        acc[1] += 1
        n = s["attrs"].get("n")
        if isinstance(n, (int, float)):
            acc[2] += n
    return [(k, v[0], int(v[1]), v[2]) for k, v in sorted(out.items())]
