"""Performance instrumentation: counters, timers, bench emission."""

from repro.perf.bench import DEFAULT_BENCH_PATH, emit_bench, read_bench
from repro.perf.counters import PERF, LruDict, PerfRegistry

__all__ = [
    "DEFAULT_BENCH_PATH",
    "LruDict",
    "PERF",
    "PerfRegistry",
    "emit_bench",
    "read_bench",
]
