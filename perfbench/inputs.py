"""Workload inputs, generated from the workload seed alone.

The program under test only ever receives what these functions build:
tune specs (stencil, device, tuner, seeds), the service job list, and
the seeded records the results database is filled with. The same seed
gives the same inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.experiments.comparison import TUNER_NAMES

#: Evaluating matrix of every workload (Section V-C stencils/devices).
STENCILS = ("j3d7pt", "cheby", "hypterm")
DEVICES = ("A100", "V100")
#: Stencils the service serves from golden records only (never tuned).
GOLDEN_STENCILS = ("j3d27pt", "helmholtz", "addsgd4", "addsgd6", "rhs4center")
#: Simulated tuning budget of every evaluating tune (Section V-C).
BUDGET_S = 100.0
#: Seeded records per golden (stencil, device) shard.
GOLDEN_RECORDS = 24
#: Wall seconds one round of each workload takes on the reference
#: machine. A run makes as many whole rounds as fit its length by this
#: estimate, so every run of a given length does the same work.
ROUND_EST_S = {"tune-cstuner": 9.6, "service-mix": 8.5}


def rounds(workload: str, seconds: float) -> int:
    return max(1, int(seconds / ROUND_EST_S[workload] + 0.5))


@dataclass(frozen=True)
class TuneSpec:
    """One tune. ``seed`` seeds the offline dataset and the search;
    ``noise_seed`` the simulated GPU's measurement noise (``None``: the
    same as ``seed``, as in ``repro tune --seed`` and service jobs)."""

    stencil: str
    device: str
    tuner: str
    seed: int
    noise_seed: int | None = None

    @property
    def entry(self) -> tuple[str, str, str]:
        """The comparison-matrix entry this tune belongs to."""
        return (self.tuner, self.stencil, self.device)

    @property
    def label(self) -> str:
        noise = "" if self.noise_seed is None else f"/n{self.noise_seed}"
        return f"{self.tuner}:{self.stencil}@{self.device}/s{self.seed}{noise}"


def _rng(seed: int, salt: str) -> random.Random:
    return random.Random(f"{salt}:{seed}")


def tune_round(seed: int, index: int) -> list[TuneSpec]:
    """Round ``index`` of in-process csTuner tunes: every (stencil,
    device) of the matrix once, in a seed-drawn order.

    Dataset and search use the paper's first repetition (seed 0) in
    every round; the workload seed draws each tune's measurement-noise
    seed, which alone moves one tune's simulated cost by up to 2.4x
    (33-79 s on j3d7pt/A100).
    """
    rng = _rng(seed, f"tune-cstuner:{index}")
    specs = [
        TuneSpec(st, dev, "csTuner", 0, rng.randrange(1 << 20))
        for st in STENCILS for dev in DEVICES
    ]
    rng.shuffle(specs)
    return specs


def warmup_spec() -> TuneSpec:
    """The untimed warm-up tune that ends set-up: the same for every
    workload seed, so set-up time measures the program's start-up and
    not the work a seed happens to draw."""
    return TuneSpec("j3d7pt", "A100", "csTuner", 0, 0)


# ---------------------------------------------------------------------------
# service-mix
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Job:
    """One service job: a golden-served read or an evaluating tune."""

    spec: TuneSpec
    golden: bool

    def params(self) -> dict[str, object]:
        return {
            "stencil": self.spec.stencil,
            "device": self.spec.device,
            "tuner": self.spec.tuner,
            "budget_s": BUDGET_S,
            "seed": self.spec.seed,
            "rep": 0,
        }


def service_jobs(seed: int, n_rounds: int) -> list[Job]:
    """The service job list.

    Round ``r`` runs each tuner of the paper's comparison matrix
    (``TUNER_NAMES``) once, tuner ``i`` on matrix entry ``r + i``, so
    every tuner carries the same weight. A service job has one seed
    for noise, dataset and search, so the csTuner, Garvey and
    OpenTuner jobs keep the paper's seed 0 and the cheap Artemis job
    takes a seed-drawn seed; the workload seed also draws the order.
    Each evaluating spec is submitted twice, the repeat in the round's
    second half so it reads the evaluation journal the first wrote,
    and a golden read follows every evaluating job (a synthetic 50 %
    golden share; README.md gives the reason).
    """
    rng = _rng(seed, "service-mix")
    combos = [(st, dev) for st in STENCILS for dev in DEVICES]
    golden_keys = [(st, dev) for st in GOLDEN_STENCILS for dev in DEVICES]
    jobs: list[Job] = []
    for r in range(n_rounds):
        specs = [
            TuneSpec(*combos[(r + i) % len(combos)], tuner,
                     rng.randrange(1 << 20) if tuner == "Artemis" else 0)
            for i, tuner in enumerate(TUNER_NAMES)
        ]
        first, second = specs[:], specs[:]
        rng.shuffle(first)
        rng.shuffle(second)
        rng.shuffle(golden_keys)
        for i, spec in enumerate(first + second):
            st, dev = golden_keys[i % len(golden_keys)]
            jobs.append(Job(spec, False))
            tuner = TUNER_NAMES[i % len(TUNER_NAMES)]
            jobs.append(Job(TuneSpec(st, dev, tuner, 0), True))
    return jobs


def service_warmup_job() -> Job:
    """A small evaluating job that starts the warm fleet during set-up;
    the same for every workload seed, like :func:`warmup_spec`."""
    return Job(TuneSpec("j3d7pt", "A100", "Artemis", 0), False)


def golden_records(seed: int, stencil: str, device: str, space) -> dict:
    """Seeded results-database records for one golden shard.

    Settings are valid points drawn from the stencil's space; times
    are seeded draws, so the golden minimum is known only from these
    records.
    """
    import numpy as np

    rng = _rng(seed, f"golden:{stencil}@{device}")
    np_rng = np.random.default_rng(rng.randrange(1 << 32))
    settings = space.sample(np_rng, GOLDEN_RECORDS)
    return {
        s.values_tuple(): (rng.uniform(1e-3, 2e-2), {})
        for s in settings
    }
