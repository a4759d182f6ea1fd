"""Nested span tracing over the coarse phases of a run.

A *span* is one timed region — a graph compilation, an SA restart, a
candidate evaluation, a store put — recorded with wall time, process
CPU time, pid/tid attribution and a parent link, so a whole parallel
DSE run renders as a flame graph in ``chrome://tracing`` / Perfetto.

Design constraints, in order:

* **Zero cost when off.**  Tracing is disabled by default; a disabled
  :func:`trace` call returns a shared no-op context manager without
  touching the clock.  Call sites are coarse (per run / per candidate,
  never per SA iteration), so even the enabled overhead is a handful
  of spans per seconds-long phase.
* **One hand-off for workers.**  A pool worker clears the tracer
  before each task and returns :meth:`Tracer.snapshot` beside its
  ``PERF`` snapshot; the dispatcher (:func:`repro.dse.pool.run_tasks`)
  folds both into the parent, so spans from every pid land there in
  the task's own result, with no extra IPC.
* **Bounded memory.**  The buffer holds at most ``max_spans`` records;
  overflow drops the newest span and counts ``obs.trace.dropped``.

Spans are plain dicts (JSON-ready); parent links (``sid``/``parent``)
are only meaningful within one pid — worker roots are top-level spans
of their own process row in the trace viewer.
"""

from __future__ import annotations

import itertools
import os
import threading
import time

from repro.perf.counters import PERF


class _NullSpan:
    """Shared no-op context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return None

    def __exit__(self, *exc):
        return False


_NULL = _NullSpan()


class _ActiveSpan:
    """One live span: times the enclosed block and records on exit."""

    __slots__ = ("tracer", "name", "attrs", "ts", "t0", "c0", "sid",
                 "parent")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict):
        self.tracer = tracer
        self.name = name
        self.attrs = attrs

    def __enter__(self) -> "_ActiveSpan":
        stack = self.tracer._stack()
        self.sid = next(self.tracer._ids)
        self.parent = stack[-1] if stack else -1
        stack.append(self.sid)
        self.ts = time.time()
        self.c0 = time.process_time()
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        dur = time.perf_counter() - self.t0
        cpu = time.process_time() - self.c0
        stack = self.tracer._stack()
        if stack and stack[-1] == self.sid:
            stack.pop()
        self.tracer._record({
            "name": self.name,
            "ts": self.ts,
            "dur": dur,
            "cpu": cpu,
            "pid": os.getpid(),
            "tid": threading.get_ident(),
            "sid": self.sid,
            "parent": self.parent,
            "attrs": self.attrs,
        })
        return False


class Tracer:
    """Bounded in-process span buffer with per-thread parent tracking."""

    def __init__(self, max_spans: int = 100_000):
        self.enabled = False
        self.max_spans = max_spans
        self.spans: list[dict] = []
        self.dropped = 0
        self._ids = itertools.count()
        self._local = threading.local()

    # -- recording -----------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def trace(self, name: str, /, **attrs):
        """Context manager timing one named span (no-op when disabled)."""
        if not self.enabled:
            return _NULL
        return _ActiveSpan(self, name, attrs)

    def _record(self, span: dict) -> None:
        if len(self.spans) >= self.max_spans:
            self.dropped += 1
            PERF.add("obs.trace.dropped")
            return
        self.spans.append(span)

    # -- lifecycle -----------------------------------------------------

    def enable(self, max_spans: int | None = None) -> None:
        if max_spans is not None:
            self.max_spans = max_spans
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def clear(self) -> None:
        """Drop recorded spans *and* the open-parent stacks.

        Resetting the stacks matters across ``fork``: a pool worker
        inherits whatever spans the parent had open at fork time, and
        without a reset every span the worker records would hang off a
        phantom parent that only exists in the parent process.  Pool
        workers call this before every task.
        """
        self.spans = []
        self.dropped = 0
        self._local = threading.local()

    # -- worker hand-off -----------------------------------------------

    def snapshot(self) -> list[dict]:
        """The recorded spans, JSON-ready (does not clear the buffer).

        A pool worker returns this with each task's outcome; it clears
        the buffer before the task, so each hand-off ships that task's
        spans only.
        """
        return list(self.spans)

    def merge(self, spans: list[dict]) -> None:
        """Fold shipped spans (e.g. a worker's hand-off) into the buffer.

        Pid/tid attribution is preserved — merged spans keep their own
        process row in the rendered trace.
        """
        for span in spans:
            self._record(dict(span))

    # -- Chrome trace export -------------------------------------------

    def chrome_trace(self, spans: list[dict] | None = None) -> dict:
        """The buffer as a Chrome-trace-viewer / Perfetto JSON object.

        Complete (``"ph": "X"``) events with microsecond timestamps
        rebased to the earliest span, one row per (pid, tid); span
        attrs plus CPU time and the ``sid``/``parent`` links ride in
        ``args`` so :mod:`repro.obs.report` can rebuild the call tree.
        """
        spans = self.snapshot() if spans is None else spans
        t0 = min((s["ts"] for s in spans), default=0.0)
        events = []
        pids = set()
        for s in spans:
            pids.add(s["pid"])
            events.append({
                "name": s["name"],
                "ph": "X",
                "ts": (s["ts"] - t0) * 1e6,
                "dur": s["dur"] * 1e6,
                "pid": s["pid"],
                "tid": s["tid"],
                "args": {
                    **s.get("attrs", {}),
                    "cpu_ms": s["cpu"] * 1e3,
                    "sid": s["sid"],
                    "parent": s["parent"],
                },
            })
        this_pid = os.getpid()
        for pid in sorted(pids):
            label = "main" if pid == this_pid else f"worker-{pid}"
            events.append({
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro {label}"},
            })
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path) -> None:
        """Atomically write :meth:`chrome_trace` JSON to ``path``."""
        # Lazy import: obs.trace must stay importable from the layers
        # below repro.io (same constraint as repro.perf.bench).
        from repro.io.atomic import atomic_write_json

        atomic_write_json(path, self.chrome_trace(), indent=None)


#: The process-global tracer every instrumented subsystem reports into.
TRACER = Tracer()


def trace(name: str, /, **attrs):
    """Module-level shorthand for ``TRACER.trace`` (the call sites'
    spelling: ``with trace("sa.run", groups=3): ...``)."""
    if not TRACER.enabled:
        return _NULL
    return _ActiveSpan(TRACER, name, attrs)
