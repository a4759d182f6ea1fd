"""Metrics export: ``PERF.snapshot()`` as Prometheus text or JSON.

This is the one file a CLI run writes its counters to (``--metrics``
on ``map``, ``dse``, ``sweep``, ``campaign run`` and ``sa-report``).
The Prometheus exposition covers every counter (``repro_<name>``) and
timer (``repro_<label>_seconds_total`` + ``_calls_total``), with metric
names sanitized to the ``[a-zA-Z_][a-zA-Z0-9_]*`` charset.  Everything
is exported as the ``counter`` type: the registry only ever
accumulates (named caches count at the lookup, so a collected cache
never takes its counts away), which is exactly Prometheus's counter
contract — rates and hit ratios are derived server-side.

The output is deterministic (sorted), so repeated exports of the same
snapshot are byte-identical.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

_SANITIZE = re.compile(r"[^a-zA-Z0-9_]")


def _metric_name(name: str, prefix: str = "repro_") -> str:
    out = prefix + _SANITIZE.sub("_", name)
    if not re.match(r"[a-zA-Z_]", out):
        out = "_" + out
    return out


def _fmt(value: float) -> str:
    """Prometheus sample value: integers without a trailing ``.0``."""
    value = float(value)
    if value.is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(value)


def prometheus_text(snap: dict, prefix: str = "repro_") -> str:
    """One ``PERF.snapshot()`` in the Prometheus text exposition format."""
    lines: list[str] = []

    def sample(metric: str, value: float, help_text: str) -> None:
        lines.append(f"# HELP {metric} {help_text}")
        lines.append(f"# TYPE {metric} counter")
        lines.append(f"{metric} {_fmt(value)}")

    for name, value in sorted(snap.get("counters", {}).items()):
        sample(_metric_name(name, prefix), value,
               f"repro counter {name!r}")
    for label, rec in sorted(snap.get("timers", {}).items()):
        base = _metric_name(label, prefix)
        sample(f"{base}_seconds_total", rec["seconds"],
               f"accumulated wall seconds of timer {label!r}")
        sample(f"{base}_calls_total", rec["calls"],
               f"accumulated calls of timer {label!r}")
    return "\n".join(lines) + "\n" if lines else ""


def metrics_json(snap: dict) -> str:
    """Counters + timers as deterministic JSON (the pid dropped)."""
    return json.dumps(
        {
            "counters": snap.get("counters", {}),
            "timers": snap.get("timers", {}),
        },
        indent=2, sort_keys=True,
    ) + "\n"


def write_metrics(path: str | Path, snap: dict) -> Path:
    """Write a snapshot as Prometheus text (``.prom``/``.txt``) or JSON.

    The format follows the file suffix; anything that is not ``.prom``
    or ``.txt`` gets JSON.  Writes are atomic.
    """
    from repro.io.atomic import atomic_write_text

    path = Path(path)
    if path.suffix in (".prom", ".txt"):
        return atomic_write_text(path, prometheus_text(snap))
    return atomic_write_text(path, metrics_json(snap))
