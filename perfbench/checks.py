"""Correctness checks, each computed apart from the program's own result.

Every evaluating tune is checked four ways:

* the best setting passes a fresh simulator's ``violation()``;
* its noise-free ``true_time`` is at least the static roofline floor
  ``perturbed_lower_bound_s(static_lower_bound_s(...))``, which
  :func:`repro.analysis.dataflow.analyze_dataflow` derives from the
  generated kernel source, not from the timing model;
* the trace's best-so-far never rises and ends at ``best_time_s``;
* the charged cost overshoots the budget by no more than the last
  evaluation batch, i.e. the last batch started below the budget.

Each function returns a list of problems; an empty list is a pass.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.analysis.dataflow import analyze_dataflow, perturbed_lower_bound_s
from repro.gpusim.device import get_device
from repro.gpusim.simulator import GpuSimulator
from repro.space.setting import Setting
from repro.stencil.suite import get_stencil

#: One trace point as ``(evaluations, iteration, cost_s, best_time_s)``.
TracePoint = tuple[int, int, float, float]


def check_tune(
    stencil: str,
    device_name: str,
    best_setting: dict[str, int] | None,
    best_time_s: float,
    cost_s: float,
    iterations: int,
    trace: Sequence[TracePoint],
    budget_s: float,
) -> list[str]:
    problems: list[str] = []
    if best_setting is None:
        return ["no best setting"]
    pattern = get_stencil(stencil)
    device = get_device(device_name)
    setting = Setting(best_setting)
    fresh = GpuSimulator(device=device)
    reason = fresh.violation(pattern, setting)
    if reason is not None:
        problems.append(f"best setting violates a constraint: {reason}")
    else:
        summary, _ = analyze_dataflow(pattern, setting, device)
        if summary.lower_bound_s is None:
            problems.append("best setting is statically unlaunchable")
        else:
            floor = perturbed_lower_bound_s(summary.lower_bound_s)
            true_time = fresh.true_time(pattern, setting)
            if true_time < floor:
                problems.append(
                    f"true time {true_time:.6e}s beats the roofline "
                    f"floor {floor:.6e}s"
                )
    bests = [pt[3] for pt in trace]
    if not bests:
        problems.append("empty trace")
    else:
        if any(b > a for a, b in zip(bests, bests[1:])):
            problems.append("trace best-so-far rises")
        if bests[-1] != best_time_s:
            problems.append(
                f"trace ends at {bests[-1]!r}, result says {best_time_s!r}"
            )
    if cost_s > budget_s:
        # The last batch ran while the iteration counter read
        # ``iterations - 1``; the first trace point carrying that
        # iteration is the boundary the batch started from.
        starts = [pt[2] for pt in trace if pt[1] == iterations - 1]
        start = min(starts) if iterations > 1 and starts else 0.0
        if start > budget_s:
            problems.append(
                f"last batch started at cost {start:.3f}s, past the "
                f"{budget_s}s budget (charged {cost_s:.3f}s)"
            )
    return problems


def check_result(result, budget_s: float) -> list[str]:
    """:func:`check_tune` over an in-process ``TuningResult``."""
    return check_tune(
        result.stencil,
        result.device,
        dict(result.best_setting) if result.best_setting is not None else None,
        result.best_time_s,
        result.cost_s,
        result.iterations,
        [(p.evaluations, p.iteration, p.cost_s, p.best_time_s)
         for p in result.trace],
        budget_s,
    )


def check_payload(payload: dict, budget_s: float) -> list[str]:
    """:func:`check_tune` over a service job's ``result.json``."""
    return check_tune(
        payload["stencil"],
        payload["device"],
        payload["best_setting"],
        payload["best_time_s"],
        payload["cost_s"],
        payload["iterations"],
        [tuple(pt) for pt in payload["trace"]],
        budget_s,
    )


def golden_minimum(records: dict) -> tuple[tuple[int, ...], float]:
    """The record a golden read must return: least time, ties broken
    by the smaller value tuple."""
    values, (time_s, _) = min(records.items(), key=lambda kv: (kv[1][0], kv[0]))
    return values, time_s
