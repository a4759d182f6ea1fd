"""Lightweight performance counters and timers for the hot paths.

The evaluation pipeline (SA loop, DSE fan-out, cache layers) reports
into a process-global :class:`PerfRegistry`.  Counters are plain named
integers/floats; timers accumulate wall-clock seconds per label.  The
registry is cheap enough to leave enabled permanently: incrementing a
counter is one dict lookup and an add.

Counters only ever grow between resets, and named caches count at the
lookup rather than from live objects at snapshot time, so a snapshot is
a complete, monotone record: a cache that died with its candidate still
counts.

Workers of a parallel DSE run each own their process-local registry;
snapshots from workers can be merged into the parent with
:meth:`PerfRegistry.merge`.  A snapshot is exactly ``{"counters",
"timers", "pid"}``: spans travel beside it (:mod:`repro.obs.trace`),
and a campaign run logs the end snapshot minus the one it took at its
start (:class:`repro.campaign.runner.CampaignRunner`).
"""

from __future__ import annotations

import os
import time
from collections import OrderedDict
from contextlib import contextmanager


class LruDict(OrderedDict):
    """A bounded dict evicting least-recently-used entries.

    Used by the evaluation caches (per-layer traffic blocks, group
    evaluations); recency is refreshed by :meth:`get_lru` and
    :meth:`put`, not by plain ``[]`` access.

    Every dict tallies its own ``hits``/``misses``; a named one also
    adds each lookup to :data:`PERF` as ``lru.<name>.hits/.misses``, as
    ``intracore`` and ``fabric.route`` do.
    """

    def __init__(self, max_entries: int = 65536, name: str | None = None):
        super().__init__()
        self.max_entries = max_entries
        self.name = name
        self.hits = 0
        self.misses = 0
        self._hits_key = f"lru.{name}.hits"
        self._misses_key = f"lru.{name}.misses"

    def get_lru(self, key):
        value = self.get(key)
        if value is not None:
            self.move_to_end(key)
            self.hits += 1
            if self.name is not None:
                PERF.add(self._hits_key)
        else:
            self.misses += 1
            if self.name is not None:
                PERF.add(self._misses_key)
        return value

    def put(self, key, value) -> None:
        self[key] = value
        self.move_to_end(key)
        while len(self) > self.max_entries:
            self.popitem(last=False)


def cache_stats(counters: dict) -> dict[str, dict]:
    """Hit/miss/ratio per ``<prefix>.hits/.misses`` pair in a counter
    dict (the live registry's, or a snapshot shipped in a ledger)."""
    out: dict[str, dict] = {}
    for name in counters:
        if name.endswith(".hits"):
            prefix = name[: -len(".hits")]
        elif name.endswith(".misses"):
            prefix = name[: -len(".misses")]
        else:
            continue
        if prefix in out:
            continue
        hits = counters.get(f"{prefix}.hits", 0)
        misses = counters.get(f"{prefix}.misses", 0)
        total = hits + misses
        out[prefix] = {
            "hits": hits,
            "misses": misses,
            "hit_rate": hits / total if total else 0.0,
        }
    return out


def cache_table(stats: dict[str, dict]) -> str:
    """The text table of a :func:`cache_stats` dict, one row per cache."""
    from repro.reporting.tables import format_table

    return format_table(
        ["cache", "hits", "misses", "hit rate"],
        [
            [name, int(s["hits"]), int(s["misses"]), f"{s['hit_rate']:.1%}"]
            for name, s in sorted(stats.items())
        ],
    )


def snapshot_delta(start: dict, end: dict) -> dict:
    """The ``counters`` and ``timers`` added between two snapshots,
    over every counter and timer of the ``end`` one."""
    before = start.get("counters", {})
    counters = {name: value - before.get(name, 0)
                for name, value in end.get("counters", {}).items()}
    timers = {}
    for label, rec in end.get("timers", {}).items():
        was = start.get("timers", {}).get(label, {})
        timers[label] = {"seconds": rec["seconds"] - was.get("seconds", 0.0),
                         "calls": rec["calls"] - was.get("calls", 0)}
    return {"counters": counters, "timers": timers}


class PerfRegistry:
    """Named counters plus labelled wall-clock timers."""

    def __init__(self):
        self._counters: dict[str, float] = {}
        self._timers: dict[str, float] = {}
        self._timer_calls: dict[str, int] = {}

    # -- counters ------------------------------------------------------

    def add(self, name: str, value: float = 1) -> None:
        self._counters[name] = self._counters.get(name, 0) + value

    def get(self, name: str) -> float:
        return self._counters.get(name, 0)

    # -- timers --------------------------------------------------------

    @contextmanager
    def time(self, label: str):
        """Accumulate the wall-clock time of the enclosed block."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            dt = time.perf_counter() - t0
            self._timers[label] = self._timers.get(label, 0.0) + dt
            self._timer_calls[label] = self._timer_calls.get(label, 0) + 1

    def add_time(self, label: str, seconds: float, calls: int = 1) -> None:
        """Fold externally measured wall time into a timer.

        Hot loops (the SA delta evaluator) accumulate a local float and
        report once per run instead of entering a context manager per
        iteration.
        """
        self._timers[label] = self._timers.get(label, 0.0) + seconds
        self._timer_calls[label] = self._timer_calls.get(label, 0) + calls

    def timer_seconds(self, label: str) -> float:
        return self._timers.get(label, 0.0)

    def timer_calls(self, label: str) -> int:
        return self._timer_calls.get(label, 0)

    # -- aggregate views ----------------------------------------------

    def hit_rate(self, prefix: str) -> float:
        """Hit rate of a cache reporting ``<prefix>.hits/.misses``."""
        hits = self.get(f"{prefix}.hits")
        misses = self.get(f"{prefix}.misses")
        total = hits + misses
        return hits / total if total else 0.0

    def cache_stats(self) -> dict[str, dict]:
        """:func:`cache_stats` of the live registry: the named
        :class:`LruDict` pairs (``lru.*``) and hand-rolled ones like
        ``intracore`` or ``fabric.route``."""
        return cache_stats(self._counters)

    def snapshot(self) -> dict:
        """A JSON-friendly copy of every counter and timer."""
        out: dict = {"counters": dict(self._counters), "timers": {},
                     "pid": os.getpid()}
        for label, secs in self._timers.items():
            out["timers"][label] = {
                "seconds": secs,
                "calls": self._timer_calls.get(label, 0),
            }
        return out

    def merge(self, snap: dict) -> None:
        """Fold a :meth:`snapshot` (e.g. from a worker) into this registry."""
        for name, value in snap.get("counters", {}).items():
            self.add(name, value)
        for label, rec in snap.get("timers", {}).items():
            self._timers[label] = self._timers.get(label, 0.0) + rec["seconds"]
            self._timer_calls[label] = (
                self._timer_calls.get(label, 0) + rec["calls"]
            )

    def reset(self) -> None:
        self._counters.clear()
        self._timers.clear()
        self._timer_calls.clear()

    def rows(self) -> list[list]:
        """(kind, name, value) rows for tabular display."""
        rows = [["counter", k, v] for k, v in sorted(self._counters.items())]
        rows += [
            ["timer", k, f"{v:.4f}s x{self._timer_calls.get(k, 0)}"]
            for k, v in sorted(self._timers.items())
        ]
        return rows


#: The process-global registry every subsystem reports into.
PERF = PerfRegistry()
