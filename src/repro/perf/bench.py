"""BENCH_perf.json emission for the tier-1 performance benchmarks.

One JSON file accumulates the measurements of the benchmarks under
``benchmarks/``: SA-loop throughput (compiled vs. object evaluator),
DSE worker scaling, population and overhead guards.  Each writes its
section through :func:`emit_bench`, merging into any existing file so
independent runs compose into one record.  A CLI run writes no section
here: its counters go to ``--metrics`` (:mod:`repro.obs.metrics`).
"""

from __future__ import annotations

import json
import os
import platform
import sys
from pathlib import Path

DEFAULT_BENCH_PATH = "BENCH_perf.json"


def _machine_info() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
    }


def _preserve_corrupt(path: Path) -> None:
    """Set an unreadable bench file aside instead of clobbering it.

    The file holds accumulated measurements; a parse error (torn write,
    manual edit gone wrong) must not silently discard them.  The broken
    bytes move to ``<name>.corrupt-<n>`` and a warning lands on stderr;
    the emit then starts a fresh file.
    """
    n = 1
    while True:
        dest = path.with_name(f"{path.name}.corrupt-{n}")
        if not dest.exists():
            break
        n += 1
    try:
        os.replace(path, dest)
    except OSError as exc:
        print(f"warning: {path} is corrupt and could not be preserved "
              f"({exc}); overwriting", file=sys.stderr)
        return
    print(f"warning: {path} was corrupt; preserved as {dest}",
          file=sys.stderr)


def emit_bench(section: str, payload: dict,
               path: str | Path = DEFAULT_BENCH_PATH) -> Path:
    """Merge ``payload`` under ``section`` into the bench JSON file."""
    # Imported here, not at module scope: perf must stay importable
    # from the interconnect layer, which loads before repro.io can.
    from repro.io.atomic import atomic_write_text

    path = Path(path)
    data: dict = {}
    if path.exists():
        try:
            data = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError):
            _preserve_corrupt(path)
            data = {}
        if not isinstance(data, dict):
            _preserve_corrupt(path)
            data = {}
    data.setdefault("machine", _machine_info())
    data[section] = payload
    atomic_write_text(
        path, json.dumps(data, indent=2, sort_keys=True) + "\n"
    )
    return path


def read_bench(path: str | Path = DEFAULT_BENCH_PATH) -> dict:
    path = Path(path)
    if not path.exists():
        return {}
    return json.loads(path.read_text())
