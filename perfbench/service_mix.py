"""The ``service-mix`` workload: a ``repro serve`` subprocess under two
closed-loop clients.

The daemon runs with two fleet workers, an evaluation-cache directory
and a results database the benchmark fills with seeded records. Two
client threads (one per core) each submit the next job of a shared
list, poll it every :data:`POLL_S` until the client sees ``done``, and
move on. Golden jobs are answered from the database with zero
evaluations; evaluating jobs run on the fleet and write the evaluation
journal, and each evaluating spec is submitted twice.
"""

from __future__ import annotations

import dataclasses
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.core import Budget
from repro.experiments.tasks import tuner_run_task
from repro.gpusim.device import get_device
from repro.gpusim.diskcache import device_token
from repro.resultsdb.db import ResultsDB
from repro.service.client import ServiceClient, ServiceError
from repro.service.executor import result_payload
from repro.space.parameters import PARAMETER_ORDER
from repro.space.space import build_space
from repro.stencil.suite import get_stencil

from checks import check_payload, golden_minimum
from metrics import tune_p50
from inputs import (
    BUDGET_S,
    DEVICES,
    GOLDEN_STENCILS,
    Job,
    TuneSpec,
    golden_records,
    service_jobs,
    rounds,
    service_warmup_job,
)

#: Client poll interval: well below the ~0.1-2 s evaluating jobs, so
#: latency is not quantized by polling.
POLL_S = 0.02
CLIENTS = 2
FLEET_WORKERS = 2
START_TIMEOUT_S = 60.0
JOB_TIMEOUT_S = 120.0
HERE = Path(__file__).resolve().parent


def build_results_db(root: Path, seed: int) -> dict:
    """Fill a results database with seeded golden records; returns the
    expected golden answer per (stencil, device)."""
    db = ResultsDB(root)
    expected = {}
    for stencil in GOLDEN_STENCILS:
        pattern = get_stencil(stencil)
        for name in DEVICES:
            device = get_device(name)
            records = golden_records(seed, stencil, name,
                                     build_space(pattern, device))
            db.append(device_token(device), stencil, records, name)
            expected[(stencil, name)] = golden_minimum(records)
    db.update_golden()
    return expected


class Daemon:
    """One ``repro serve`` subprocess and its state directories."""

    def __init__(self, work: Path, db_root: Path, checkout: Path,
                 traced: bool) -> None:
        self.work = work
        self.state_dir = work / "state"
        self.cache_dir = work / "cache"
        self.stats_path = work / "layers.json"
        serve_args = [
            "serve", "--state-dir", str(self.state_dir),
            "--workers", str(FLEET_WORKERS),
            "--results-db", str(db_root), "--cache-dir", str(self.cache_dir),
        ]
        if traced:
            cmd = [sys.executable, str(HERE / "launcher.py"),
                   str(self.stats_path), *serve_args]
        else:
            cmd = [sys.executable, "-m", "repro", *serve_args]
        env = dict(os.environ)
        src = str(checkout / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        work.mkdir(parents=True, exist_ok=True)
        self.log = open(work / "daemon.out", "wb")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd, stdout=self.log, stderr=subprocess.STDOUT, env=env,
            cwd=str(checkout),
        )
        try:
            self.client = self._connect()
        except BaseException:
            self.stop()
            raise

    def _connect(self) -> ServiceClient:
        deadline = time.monotonic() + START_TIMEOUT_S
        endpoint = self.state_dir / "daemon.json"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            if endpoint.exists():
                try:
                    url = json.loads(endpoint.read_text())["url"]
                    client = ServiceClient(url, timeout_s=JOB_TIMEOUT_S)
                    if client.healthz().get("status") == "ok":
                        return client
                except (ValueError, KeyError, ServiceError):
                    pass
            time.sleep(0.01)
        raise RuntimeError("daemon did not become healthy")

    def run_job(self, job: Job) -> dict:
        reply = self.client.submit("tune", job.params())
        return self.client.wait(reply["job"]["id"], timeout_s=JOB_TIMEOUT_S,
                                poll_s=POLL_S)

    def peak_rss_mb(self) -> float:
        """VmHWM of the daemon plus each fleet worker, MB."""
        pids = [self.proc.pid] + list(self.client.healthz()["fleet_pids"])
        total_kb = 0
        for pid in pids:
            status = Path(f"/proc/{pid}/status").read_text()
            for line in status.splitlines():
                if line.startswith("VmHWM:"):
                    total_kb += int(line.split()[1])
        return total_kb / 1024.0

    def stop(self) -> None:
        """SIGTERM the daemon, wait for it, then for every process it
        started (forkserver, fleet workers), killing any left over."""
        children = _descendants(self.proc.pid)
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        deadline = time.monotonic() + 10
        while any(_alive(pid) for pid in children):
            if time.monotonic() > deadline:
                for pid in children:
                    if _alive(pid):
                        os.kill(pid, signal.SIGKILL)
            time.sleep(0.01)

    def job_payload(self, job_id: str) -> dict:
        path = self.state_dir / "jobs" / job_id / "result.json"
        return json.loads(path.read_text())


def _stat(pid: int) -> list[str] | None:
    """Fields of ``/proc/<pid>/stat`` after the command name."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rpartition(")")[2].split()
    except OSError:
        return None


def _alive(pid: int) -> bool:
    """Is ``pid`` running? An exited process the init process has not
    reaped yet (state Z) has ended."""
    stat = _stat(pid)
    return stat is not None and stat[0] not in ("Z", "X")


def _descendants(root: int) -> list[int]:
    parent = {}
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            stat = _stat(int(entry.name))
            if stat is not None:
                parent[int(entry.name)] = int(stat[1])
    found, frontier = [], [root]
    while frontier:
        kids = [pid for pid, ppid in parent.items() if ppid in frontier]
        found += kids
        frontier = kids
    return found


def start_daemon(work: Path, db_root: Path, checkout: Path,
                 traced: bool = False) -> tuple[Daemon, float]:
    """Start a daemon and run the warm-up job; returns it and the
    set-up seconds (spawn to warm-up job done)."""
    daemon = Daemon(work, db_root, checkout, traced)
    try:
        done = daemon.run_job(service_warmup_job())
        if done["state"] != "done":
            raise RuntimeError(f"warm-up job {done['state']}: {done.get('error')}")
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - daemon.t0


def drive(daemon: Daemon, jobs: list[Job]) -> tuple[list[dict], float]:
    """Two closed-loop clients over ``jobs``; returns per-job records
    and the window (first submit to last done), seconds."""
    records: list[dict | None] = [None] * len(jobs)
    cursor = iter(range(len(jobs)))
    lock = threading.Lock()

    def client_loop() -> None:
        client = ServiceClient(daemon.client.base_url, timeout_s=JOB_TIMEOUT_S)
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            t0 = time.perf_counter()
            try:
                reply = client.submit("tune", jobs[i].params())
                job_id = reply["job"]["id"]
                final = client.wait(job_id, timeout_s=JOB_TIMEOUT_S,
                                    poll_s=POLL_S)
            except (ServiceError, TimeoutError) as exc:
                records[i] = {"job": jobs[i], "t0": t0,
                              "t1": time.perf_counter(), "id": None,
                              "state": f"client error: {exc}"}
                continue
            records[i] = {"job": jobs[i], "t0": t0, "t1": time.perf_counter(),
                          "id": job_id, "state": final["state"],
                          "error": final.get("error")}

    threads = [threading.Thread(target=client_loop) for _ in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    done = [r for r in records if r is not None]
    window = max(r["t1"] for r in done) - min(r["t0"] for r in done)
    return done, window


def direct_payload(spec: TuneSpec, db_root: str) -> dict:
    """``result.json`` as a direct ``tuner_run_task`` call with the
    arguments the executor ships for ``spec`` would write it."""
    return json.loads(json.dumps(result_payload(
        tuner_run_task(spec.stencil, spec.device, spec.tuner,
                       Budget(max_cost_s=BUDGET_S), 0, spec.seed,
                       128, db_root, False, False, 8)
    )))


def direct_payloads(specs: list[TuneSpec], db_root: Path,
                    work: Path) -> list[dict]:
    """:func:`direct_payload` for each of ``specs``, on one fresh
    interpreter per core running this module (plain subprocesses, so no
    multiprocessing helper process outlives the run)."""
    shares = [specs[i::CLIENTS] for i in range(CLIENTS)]
    shares = [share for share in shares if share]
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(HERE.parent / "src") + os.pathsep
                         + env.get("PYTHONPATH", ""))
    procs = []
    try:
        for i, share in enumerate(shares):
            out = work / f"direct{i}.json"
            arg = json.dumps([dataclasses.asdict(s) for s in share])
            procs.append((subprocess.Popen(
                [sys.executable, str(Path(__file__).resolve()), "--direct",
                 str(db_root), str(out), arg],
                env=env, cwd=str(HERE.parent),
            ), out))
        payloads: dict[TuneSpec, dict] = {}
        for (proc, out), share in zip(procs, shares):
            if proc.wait() != 0:
                raise RuntimeError(f"direct payloads exited with "
                                   f"{proc.returncode}")
            payloads.update(zip(share, json.loads(out.read_text())))
    finally:
        for proc, _ in procs:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return [payloads[s] for s in specs]


def check_jobs(daemon: Daemon, records: list[dict], expected: dict,
               db_root: Path, direct: dict) -> int:
    """Count failed jobs. ``direct`` memoizes one direct
    ``tuner_run_task`` payload per distinct evaluating spec; the missing
    ones are computed on one process per core, outside the window."""
    todo = list(dict.fromkeys(
        r["job"].spec for r in records
        if not r["job"].golden and r["job"].spec not in direct))
    if todo:
        direct.update(zip(todo, direct_payloads(todo, db_root,
                                                daemon.work)))
    failed = 0
    for r in records:
        job: Job = r["job"]
        problems: list[str] = []
        if r["state"] != "done":
            problems.append(f"state {r['state']}: {r.get('error')}")
        else:
            payload = daemon.job_payload(r["id"])
            r["payload"] = payload
            if job.golden:
                values, time_s = expected[(job.spec.stencil, job.spec.device)]
                got = tuple(payload["best_setting"][k]
                            for k in PARAMETER_ORDER)
                if (got != values or payload["best_time_s"] != time_s
                        or payload["evaluations"] != 0):
                    problems.append(
                        f"golden read {got} {payload['best_time_s']!r} "
                        f"!= expected {values} {time_s!r}")
            else:
                problems += check_payload(payload, BUDGET_S)
                if payload != direct[job.spec]:
                    problems.append("result.json differs from a direct "
                                    "tuner_run_task call")
        if problems:
            failed += 1
            print(f"CHECK FAILED {job.spec.label}: {'; '.join(problems)}",
                  flush=True)
    return failed


def end_to_end(records: list[dict], window: float) -> dict[str, float]:
    evaluating = [r for r in records if not r["job"].golden and "payload" in r]
    return {
        "tune_p50_s": tune_p50([r["job"].spec.entry for r in evaluating],
                               [r["t1"] - r["t0"] for r in evaluating]),
        "tunes_per_s": len(records) / window,
        "best_time_geomean_ms": statistics.geometric_mean(
            r["payload"]["best_time_s"] * 1e3 for r in evaluating),
        "sim_cost_per_tune_s": statistics.fmean(
            r["payload"]["cost_s"] for r in evaluating),
    }


class ServiceRun:
    """One service-mix run: its job list, results database and the
    daemons it starts, all under one work directory."""

    def __init__(self, checkout: Path, work: Path, seed: int,
                 seconds: float) -> None:
        self.checkout = checkout
        self.work = work
        self.jobs = service_jobs(seed, rounds("service-mix", seconds))
        self.db_root = work / "resultsdb"
        self.expected = build_results_db(self.db_root, seed)
        self.direct: dict = {}

    def setup_samples(self, k: int) -> tuple[Daemon, list[float]]:
        """Start ``k`` daemons in turn; keep the last one running."""
        samples = []
        for i in range(k):
            daemon, setup_s = start_daemon(
                self.work / f"daemon{i}", self.db_root, self.checkout)
            samples.append(setup_s)
            if i < k - 1:
                daemon.stop()
        return daemon, samples

    def window(self, daemon: Daemon) -> tuple[dict, list[dict], int]:
        """Drive the job list; returns (metrics, records, failed)."""
        try:
            records, window = drive(daemon, self.jobs)
            rss = daemon.peak_rss_mb()
        finally:
            daemon.stop()
        failed = check_jobs(daemon, records, self.expected, self.db_root,
                            self.direct)
        metrics = end_to_end(records, window) if failed < len(records) else {}
        metrics["peak_rss_mb"] = rss
        return metrics, records, failed


def service_layers(daemon: Daemon, records: list[dict]) -> dict[str, float]:
    """Per-layer metrics of a traced daemon, from the launcher's dump,
    each job's ``orchestration.txt`` and the files the run left."""
    dump = json.loads(daemon.stats_path.read_text())
    sec, calls = dump["seconds"], dump["calls"]
    ctr = dump["registry"]
    evaluating = [r for r in records if not r["job"].golden]
    # Daemon-side totals also cover the set-up's warm-up job (one more
    # evaluating job); the HTTP count also covers the health probes.
    jobs = len(records) + 1
    n_eval = len(evaluating) + 1

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    orch = {"cache_hits": 0.0, "cache_misses": 0.0, "cache_puts": 0.0}
    for r in evaluating:
        path = daemon.state_dir / "jobs" / r["id"] / "orchestration.txt"
        for line in path.read_text().splitlines():
            key, _, value = line.partition(": ")
            if key in orch:
                orch[key] += float(value)
    journal_bytes = sum(p.stat().st_size for p in daemon.cache_dir.rglob("*")
                        if p.is_file())
    queue_lines = (daemon.state_dir / "queue.jsonl").read_text().splitlines()
    stamps = [dump["stamps"][r["id"]] for r in records]
    waits = [s["claim"] - s["submit"] for s in stamps]
    busy_s = sum(s["exec_s"] for s in stamps)
    busy_window = (max(s["end"] for s in stamps)
                   - min(s["submit"] for s in stamps))

    def span(name: str) -> float:
        return sec.get(f"span:{name}", 0.0)

    batches = calls.get("span:sim.batch_eval", 0)
    own = span("tuner.run") + span("phase.dataset")
    return {
        "profiler.dataset_s": span("phase.dataset") / n_eval,
        "grouping.wall_s": span("phase.grouping") / n_eval,
        "sampling.wall_s": span("phase.sampling") / n_eval,
        "ml.fit_pmnf_s": span("phase.fitting") / n_eval,
        "codegen.wall_s": span("phase.codegen") / n_eval,
        "search.wall_s": span("phase.search") / n_eval,
        "eval.evaluations": statistics.fmean(
            r["payload"]["evaluations"] for r in evaluating),
        "eval.measure_s": span("phase.measurement") / n_eval,
        "sim.batch_calls": batches / n_eval,
        "sim.settings_per_batch": ratio(
            dump["counters"].get("span:sim.batch_eval:n", 0.0), batches),
        "store.records_written": orch["cache_puts"] / len(evaluating),
        "store.journal_bytes": journal_bytes / n_eval,
        "store.disk_hit_ratio": ratio(
            orch["cache_hits"], orch["cache_hits"] + orch["cache_misses"]),
        "resultsdb.serve_ms": 1e3 * ratio(sec.get("resultsdb.serve", 0.0),
                                          calls.get("resultsdb.serve", 0)),
        "resultsdb.golden_hits": float(calls.get("resultsdb.golden_hits", 0)),
        "pool.overhead_s": (sec.get("pool.map", 0.0) - own) / n_eval,
        "service.queue_wait_s": statistics.fmean(waits) if waits else 0.0,
        "service.exec_s": busy_s / len(stamps),
        "service.scheduler_busy_frac": busy_s / busy_window,
        "service.journal_appends_per_job": (len(queue_lines) - 1) / jobs,
        "service.http_requests_per_job": ctr.get("service.http_requests", 0.0)
        / jobs,
        "service.jobs_retried": ctr.get("service.jobs_retried", 0.0),
    }


if __name__ == "__main__" and sys.argv[1:2] == ["--direct"]:
    # ``service_mix.py --direct <db_root> <out.json> <specs json>``,
    # as :func:`direct_payloads` starts it.
    db_arg, out_arg, specs_arg = sys.argv[2:]
    Path(out_arg).write_text(json.dumps([
        direct_payload(TuneSpec(**spec), db_arg)
        for spec in json.loads(specs_arg)
    ]))
