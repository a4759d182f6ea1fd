"""Observability: span tracing, run ledger, metrics export, reports.

The package layers on :mod:`repro.perf` — pool workers hand their spans
back beside their ``PERF`` snapshot, through the one dispatcher
(:func:`repro.dse.pool.run_tasks`) — and stays importable from every
layer above ``repro.perf`` (``repro.io`` is imported lazily, like
:mod:`repro.perf.bench`).
"""

from repro.obs.diag import (
    SARunDiag,
    StreamingMoments,
    render_sa_diag,
    sparkline,
)
from repro.obs.ledger import (
    LEDGER_NAME,
    RunLedger,
    failure_digest,
    read_ledger,
)
from repro.obs.metrics import metrics_json, prometheus_text, write_metrics
from repro.obs.report import (
    PROFILE_HEADERS,
    SORT_KEYS,
    TraceFormatError,
    aggregate_trace,
    load_chrome_trace,
    profile_rows,
    validate_chrome_trace,
)
from repro.obs.trace import TRACER, Tracer, trace

__all__ = [
    "LEDGER_NAME",
    "PROFILE_HEADERS",
    "RunLedger",
    "SARunDiag",
    "SORT_KEYS",
    "StreamingMoments",
    "TRACER",
    "TraceFormatError",
    "Tracer",
    "aggregate_trace",
    "failure_digest",
    "load_chrome_trace",
    "metrics_json",
    "profile_rows",
    "prometheus_text",
    "read_ledger",
    "render_sa_diag",
    "sparkline",
    "trace",
    "validate_chrome_trace",
    "write_metrics",
]
