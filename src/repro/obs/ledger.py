"""The structured run ledger: an append-only JSONL event stream.

Every campaign run appends one line per notable event — run started or
resumed, candidate evaluated (with duration and the mean/variance of
its per-restart SA wall times), candidate failed (with a traceback
digest), run interrupted/finished, and a closing ``perf`` event with
the counters and timers that run added — into
``<home>/<name>/ledger.jsonl`` (:func:`ledger_path`).  The store-only
campaign view (:mod:`repro.campaign.view`, behind ``repro campaign
watch`` and ``report``) reads it without loading models, grids or
evaluators; shard health, throughput, caches and operator tables cover
the latest run, from its last ``run_started`` or ``run_resumed`` on
(the operator tables are those the store holds for the candidates the
run checkpointed).

Durability follows the :class:`~repro.campaign.store.ResultStore`
conventions: a single writer appends flushed whole lines, and the
reader skips unparseable trailing data, so a kill between two events
costs at most the torn final line.  Telemetry must never take a run
down with it: write errors are swallowed and counted under
``obs.ledger.errors``.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
import traceback
from pathlib import Path

from repro.perf.counters import PERF

#: Ledger file name inside a campaign directory.
LEDGER_NAME = "ledger.jsonl"


def ledger_path(home: str | Path, name: str) -> Path:
    """The ledger of campaign ``name`` in campaigns home ``home``."""
    return Path(home) / name / LEDGER_NAME


class RunLedger:
    """Single-writer append-only event stream for one campaign."""

    def __init__(self, path: str | Path, fsync: bool = False):
        self.path = Path(path)
        self.fsync = fsync
        self._fh = None
        try:
            self.path.parent.mkdir(parents=True, exist_ok=True)
        except OSError:
            PERF.add("obs.ledger.errors")

    def emit(self, event: str, **fields) -> None:
        """Append one event line (best-effort, never raises)."""
        rec = {"ts": time.time(), "pid": os.getpid(), "event": event}
        rec.update(fields)
        try:
            line = json.dumps(rec, separators=(",", ":"), default=str)
        except (TypeError, ValueError):
            PERF.add("obs.ledger.errors")
            return
        if "\n" in line:
            PERF.add("obs.ledger.errors")
            return
        try:
            if self._fh is None:
                self._fh = open(self.path, "a")
            self._fh.write(line + "\n")
            self._fh.flush()
            if self.fsync:
                os.fsync(self._fh.fileno())
        except OSError:
            PERF.add("obs.ledger.errors")

    def close(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:
                PERF.add("obs.ledger.errors")
            self._fh = None

    def __enter__(self) -> "RunLedger":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def read_ledger(path: str | Path) -> tuple[list[dict], int]:
    """``(events, skipped_lines)`` of a ledger file, torn-tail tolerant.

    A missing file reads as an empty ledger; unparseable lines (the
    torn tail of a killed writer, or foreign junk) are skipped and
    counted, exactly like the result-store segment scan.
    """
    path = Path(path)
    if not path.exists():
        return [], 0
    events: list[dict] = []
    skipped = 0
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            rec = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(rec, dict) or "event" not in rec:
            skipped += 1
            continue
        events.append(rec)
    return events, skipped


def failure_digest(error: BaseException) -> str:
    """A short stable digest of an exception's traceback.

    Two crashes with the same stack collapse to the same digest, so the
    ledger (and dashboards over it) can group failures without storing
    full tracebacks per event.
    """
    text = "".join(
        traceback.format_exception(type(error), error, error.__traceback__)
    )
    return hashlib.sha256(text.encode()).hexdigest()[:12]
