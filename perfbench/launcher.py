"""Start ``repro serve`` with the per-layer wrappers installed.

Usage: ``python3 launcher.py <stats.json> serve <repro serve args...>``

Wraps the daemon-side layers (results database, worker pool, job
queue, executor), switches the program's span tracer on so fleet
workers send their ``phase.*`` spans back through the pool, serves
until SIGTERM, then writes the recorded totals to ``<stats.json>``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from repro import obs  # noqa: E402
from repro.cli import main  # noqa: E402

from layers import Recorder, install_service_wrappers  # noqa: E402


def run(stats_path: str, argv: list[str]) -> int:
    rec = Recorder()
    stamps = install_service_wrappers(rec)
    obs.enable_tracing()
    code = main(argv)
    dump = rec.snapshot()
    dump["registry"] = obs.get_registry().counters()
    dump["stamps"] = dict(stamps)
    Path(stats_path).write_text(json.dumps(dump, sort_keys=True))
    return code


if __name__ == "__main__":
    sys.exit(run(sys.argv[1], sys.argv[2:]))
