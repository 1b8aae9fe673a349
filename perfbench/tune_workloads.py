"""The in-process tune workload, ``tune-cstuner``.

Each tune is cold and makes the calls ``repro tune`` makes: a fresh
``GpuSimulator`` seeded with the tune's noise seed, ``build_space``,
the offline dataset, then ``run_tuner`` under the 100 s simulated
budget. No evaluation store is
attached. A run makes a number of whole rounds of the matrix fixed by
its length; each round draws fresh noise seeds.
"""

from __future__ import annotations

import statistics
import time

from repro import obs
from repro.core import Budget, CsTuner, CsTunerConfig
from repro.experiments.comparison import run_tuner
from repro.gpusim.device import get_device
from repro.gpusim.simulator import GpuSimulator
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

from checks import check_result
from inputs import BUDGET_S, TuneSpec, rounds, tune_round
from layers import Recorder, aggregate_spans, install_tune_wrappers
from metrics import tune_p50

def run_tune(spec: TuneSpec):
    """One cold tune; returns ``(spec, result, wall seconds, cache_info)``."""
    t0 = time.perf_counter()
    pattern = get_stencil(spec.stencil)
    device = get_device(spec.device)
    simulator = GpuSimulator(device=device, seed=spec.noise_seed)
    space = build_space(pattern, device)
    dataset = CsTuner(
        simulator, CsTunerConfig(seed=spec.seed)
    ).collect_dataset(pattern, space)
    result = run_tuner(
        spec.tuner, simulator, pattern, space, Budget(max_cost_s=BUDGET_S),
        dataset=dataset, seed=spec.seed,
    )
    return spec, result, time.perf_counter() - t0, simulator.cache_info()


def _run_rounds(seed: int, seconds: float, on_tune=None):
    """The whole rounds that fit ``seconds``; returns the tunes and the
    wall seconds they took."""
    tunes: list[tuple] = []
    t0 = time.perf_counter()
    for index in range(rounds("tune-cstuner", seconds)):
        for spec in tune_round(seed, index):
            tune = run_tune(spec)
            tunes.append(tune)
            if on_tune is not None:
                on_tune(tune)
    return tunes, time.perf_counter() - t0


def _check_all(tunes: list[tuple]) -> int:
    failed = 0
    for _, result, _, _ in tunes:
        problems = check_result(result, BUDGET_S)
        if problems:
            failed += 1
            print(f"CHECK FAILED {result.tuner} {result.stencil}@"
                  f"{result.device}: {'; '.join(problems)}", flush=True)
    return failed


def end_to_end(tunes: list[tuple], window_s: float) -> dict[str, float]:
    results = [t[1] for t in tunes]
    return {
        "tune_p50_s": tune_p50([t[0].entry for t in tunes],
                               [t[2] for t in tunes]),
        "tunes_per_s": len(tunes) / window_s,
        "best_time_geomean_ms": statistics.geometric_mean(
            r.best_time_s * 1e3 for r in results
        ),
        "sim_cost_per_tune_s": statistics.fmean(r.cost_s for r in results),
    }


def measure(seed: int, seconds: float) -> tuple[dict, int, int]:
    """The timed window; returns (metrics, attempted, failed)."""
    tunes, window_s = _run_rounds(seed, seconds)
    return end_to_end(tunes, window_s), len(tunes), _check_all(tunes)


def measure_traced(seed: int, seconds: float):
    """Untraced rounds for half the time, then traced rounds.

    Returns (per-layer metrics, attempted, failed). The overhead is the
    traced ``tune_p50_s`` against the untraced one.
    """
    plain, _ = _run_rounds(seed, seconds / 2)

    rec = Recorder()
    acc = {"measure_s": 0.0, "hits": 0, "misses": 0}

    def on_tune(tune: tuple) -> None:
        for name, secs, _, _ in aggregate_spans(obs.get_tracer().drain()):
            if name == "phase.measurement":
                acc["measure_s"] += secs
        acc["hits"] += tune[3]["hits"]
        acc["misses"] += tune[3]["misses"]

    install_tune_wrappers(rec)
    counters_before = obs.get_registry().counters()
    obs.enable_tracing()
    try:
        traced, _ = _run_rounds(seed, seconds / 2, on_tune)
    finally:
        obs.disable_tracing()
        rec.uninstall()
    counters = obs.get_registry().counters()
    delta = {k: v - counters_before.get(k, 0.0) for k, v in counters.items()}

    layers = tune_layers(rec.snapshot(), delta, acc, [t[1] for t in traced])
    layers["trace.overhead_pct"] = 100.0 * (
        end_to_end(traced, 1.0)["tune_p50_s"]
        / end_to_end(plain, 1.0)["tune_p50_s"] - 1.0
    )
    tunes = plain + traced
    return layers, len(tunes), _check_all(tunes)


def tune_layers(snap: dict, delta: dict, acc: dict,
                results: list) -> dict[str, float]:
    n = len(results)
    sec, calls, ctr = snap["seconds"], snap["calls"], snap["counters"]

    def per(x: float) -> float:
        return x / n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    g_batches = ctr.get("grouping:sim.batch_calls", 0.0)
    g_settings = ctr.get("grouping:sim.batch_settings", 0.0)
    pre = sum(r.phase_seconds.get(p, 0.0) for r in results
              for p in ("grouping", "sampling", "codegen"))
    search_host = sum(r.phase_seconds.get("search", 0.0) for r in results)
    search_sim = sum(float(r.meta.get("search_cost_s", 0.0))
                     for r in results if r.tuner == "csTuner")
    out = {
        "profiler.dataset_s": per(sec.get("profiler.dataset", 0.0)),
        "grouping.wall_s": per(sec.get("grouping", 0.0)),
        "grouping.sim_batches": per(g_batches),
        "grouping.settings_per_batch": ratio(g_settings, g_batches),
        "sampling.wall_s": per(sec.get("sampling", 0.0)),
        "ml.fit_pmnf_s": per(sec.get("ml.fit_pmnf", 0.0)),
        "ml.pmnf_fits": per(calls.get("ml.fit_pmnf", 0)),
        "codegen.wall_s": per(sec.get("codegen", 0.0)),
        "codegen.kernels": per(calls.get("codegen", 0)),
        "search.wall_s": per(sec.get("search", 0.0)),
        "eval.evaluations": per(sum(r.evaluations for r in results)),
        "eval.measure_s": per(acc["measure_s"]),
        "sim.run_batch_s": per(sec.get("sim.run_batch", 0.0)),
        "sim.batch_calls": per(delta.get("sim.batch_calls", 0.0)),
        "sim.settings_per_batch": ratio(delta.get("sim.batch_settings", 0.0),
                                        delta.get("sim.batch_calls", 0.0)),
        "sim.cache_hit_ratio": ratio(acc["hits"], acc["hits"] + acc["misses"]),
        "fig12.preprocess_host_pct": 100.0 * ratio(pre, search_sim),
        "fig12.preprocess_over_search_host_pct": 100.0 * ratio(pre, search_host),
    }
    return out
