"""Tracing overhead guard: spans must be ~free on the SA hot path.

Two numbers are asserted (the observability budget):

* **disabled** — the cost of the dormant ``trace()`` call sites during
  one compiled SA run must stay under 0.5% of the run's CPU time;
* **enabled** — recording every span of the run must stay under 3%.

Both are *computed* overheads: per-call cost of the trace fast paths
(measured over many thousands of calls) times the span volume one real
run produces, divided by the run's CPU time.  That product is
deterministic up to clock resolution, unlike an end-to-end A/B on a
shared runner where 3% is indistinguishable from scheduler noise — the
end-to-end interleaved best-of-3 CPU ratio is recorded in
``BENCH_perf.json`` but only sanity-checked loosely.

The guard holds by design, not by luck: span sites are per run / per
restart / per candidate, never per SA iteration, so a run contributes
a handful of spans against seconds of annealing.
"""

import os
import time

from conftest import print_banner, sa_settings

from repro.arch import g_arch
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.sa import SASettings
from repro.evalmodel import Evaluator
from repro.obs.trace import TRACER, trace
from repro.perf import emit_bench

#: The asserted budgets (fractions of one compiled SA run's CPU time).
MAX_DISABLED_OVERHEAD = 0.005
MAX_ENABLED_OVERHEAD = 0.03

#: End-to-end sanity ceiling (recorded ratio, loosely checked — CPU
#: scheduling noise on shared runners swamps the real sub-1% effect).
MAX_END_TO_END_RATIO = 1.25

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")


def _sa_cpu(graph, arch, lmss, batch, iterations) -> float:
    """CPU seconds of one compiled SA run."""
    evaluator = Evaluator(arch, cache=True)
    controller = SAController(
        graph, evaluator, list(lmss), batch,
        SASettings(iterations=iterations, seed=3),
    )
    t0 = time.process_time()
    controller.run()
    return time.process_time() - t0


def test_tracing_overhead_guard(tf_model):
    arch = g_arch()
    batch = 16
    iterations = max(30, int(sa_settings(120).iterations))
    graph = tf_model
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]

    was_enabled = TRACER.enabled
    try:
        # Per-call cost of the two fast paths, amortized over enough
        # calls that process_time resolution is irrelevant.
        TRACER.disable()
        n_off = 200_000
        t0 = time.process_time()
        for _ in range(n_off):
            with trace("bench.noop"):
                pass
        cost_off = (time.process_time() - t0) / n_off

        TRACER.enable()
        TRACER.clear()
        n_on = 20_000
        t0 = time.process_time()
        for _ in range(n_on):
            with trace("bench.span"):
                pass
        cost_on = (time.process_time() - t0) / n_on
        TRACER.clear()

        # Span volume of one real run (call sites fired, empirically).
        spans_before = len(TRACER.spans)
        _sa_cpu(graph, arch, lmss, batch, iterations)
        spans_per_run = len(TRACER.spans) - spans_before
        TRACER.clear()
        TRACER.disable()

        # End-to-end A/B, interleaved best-of-3 CPU time (recorded).
        cpu = {"disabled": float("inf"), "enabled": float("inf")}
        for _ in range(3):
            TRACER.disable()
            cpu["disabled"] = min(
                cpu["disabled"], _sa_cpu(graph, arch, lmss, batch, iterations)
            )
            TRACER.enable()
            cpu["enabled"] = min(
                cpu["enabled"], _sa_cpu(graph, arch, lmss, batch, iterations)
            )
            TRACER.clear()
    finally:
        TRACER.clear()
        TRACER.enabled = was_enabled

    run_cpu = cpu["disabled"]
    assert run_cpu > 0 and spans_per_run > 0
    disabled_overhead = spans_per_run * cost_off / run_cpu
    enabled_overhead = spans_per_run * cost_on / run_cpu
    end_to_end_ratio = cpu["enabled"] / cpu["disabled"]

    print_banner("Tracing overhead on the compiled SA hot path")
    print(f"spans per run:        {spans_per_run}")
    print(f"disabled trace() cost: {cost_off * 1e9:.0f} ns/call "
          f"-> {disabled_overhead:.5%} of the run "
          f"(budget {MAX_DISABLED_OVERHEAD:.1%})")
    print(f"enabled span cost:     {cost_on * 1e6:.2f} us/span "
          f"-> {enabled_overhead:.5%} of the run "
          f"(budget {MAX_ENABLED_OVERHEAD:.0%})")
    print(f"end-to-end CPU ratio (enabled/disabled, best of 3): "
          f"{end_to_end_ratio:.4f}")

    emit_bench("obs_overhead", {
        "iterations": iterations,
        "batch": batch,
        "model": "TF",
        "spans_per_run": spans_per_run,
        "disabled_cost_s_per_call": cost_off,
        "enabled_cost_s_per_span": cost_on,
        "run_cpu_s": run_cpu,
        "disabled_overhead_fraction": disabled_overhead,
        "enabled_overhead_fraction": enabled_overhead,
        "end_to_end_cpu_ratio": end_to_end_ratio,
        "budget_disabled": MAX_DISABLED_OVERHEAD,
        "budget_enabled": MAX_ENABLED_OVERHEAD,
    }, BENCH_PATH)

    assert disabled_overhead <= MAX_DISABLED_OVERHEAD, (
        f"dormant trace() sites cost {disabled_overhead:.4%} of a compiled "
        f"SA run (budget {MAX_DISABLED_OVERHEAD:.1%})"
    )
    assert enabled_overhead <= MAX_ENABLED_OVERHEAD, (
        f"span recording costs {enabled_overhead:.4%} of a compiled SA run "
        f"(budget {MAX_ENABLED_OVERHEAD:.0%})"
    )
    assert end_to_end_ratio <= MAX_END_TO_END_RATIO, (
        f"enabled tracing made the whole run {end_to_end_ratio:.2f}x "
        "slower end to end — far beyond its computed cost"
    )


#: Search-diagnostics budgets (same method as the tracing guard).
#: Tighter than tracing: the dormant path is a ``None`` check and even
#: the enabled path is dict lookups + integer adds, never an object
#: allocation per iteration.
MAX_DIAG_DISABLED_OVERHEAD = 0.001
MAX_DIAG_ENABLED_OVERHEAD = 0.01


def test_diag_overhead_guard(tf_model):
    from repro.obs.diag import SARunDiag

    arch = g_arch()
    batch = 16
    iterations = max(30, int(sa_settings(120).iterations))
    graph = tf_model
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]

    # Dormant path: the controller holds ``_diag = None`` and guards
    # every hook with one identity check.  Per-iteration volume: one in
    # the run loop, one per operator draw, one per scored proposal.
    class _Holder:
        __slots__ = ("_diag",)

        def __init__(self):
            self._diag = None

    holder = _Holder()
    n_off = 1_000_000
    sink = 0
    t0 = time.process_time()
    for _ in range(n_off):
        if holder._diag is not None:
            sink += 1
    cost_off = (time.process_time() - t0) / n_off
    assert sink == 0
    checks_per_iter = 3

    # Enabled path: one draw + one proposal + one want/sample gate per
    # iteration, against a live recorder.
    diag = SARunDiag(iterations=iterations, seed=0)
    n_on = 100_000
    t0 = time.process_time()
    for i in range(n_on):
        diag.draw("OP1")
        diag.proposal("OP1", 0.01, i % 3 == 0, i % 7 == 0)
        if diag.want(i):
            diag.sample(i, 10.0, 11.0, 0.1)
    cost_on = (time.process_time() - t0) / n_on

    run_cpu = _sa_cpu(graph, arch, lmss, batch, iterations)
    assert run_cpu > 0
    per_iter_cpu = run_cpu / iterations
    disabled_overhead = checks_per_iter * cost_off / per_iter_cpu
    enabled_overhead = cost_on / per_iter_cpu

    print_banner("Search-diagnostics overhead on the compiled SA hot path")
    print(f"dormant None check:    {cost_off * 1e9:.1f} ns/check x "
          f"{checks_per_iter}/iter -> {disabled_overhead:.5%} of an "
          f"iteration (budget {MAX_DIAG_DISABLED_OVERHEAD:.1%})")
    print(f"enabled record cost:   {cost_on * 1e9:.0f} ns/iter "
          f"-> {enabled_overhead:.5%} of an iteration "
          f"(budget {MAX_DIAG_ENABLED_OVERHEAD:.0%})")
    print(f"SA iteration CPU:      {per_iter_cpu * 1e6:.1f} us")

    emit_bench("diag_overhead", {
        "iterations": iterations,
        "batch": batch,
        "model": "TF",
        "disabled_cost_s_per_check": cost_off,
        "enabled_cost_s_per_iter": cost_on,
        "run_cpu_s": run_cpu,
        "disabled_overhead_fraction": disabled_overhead,
        "enabled_overhead_fraction": enabled_overhead,
        "budget_disabled": MAX_DIAG_DISABLED_OVERHEAD,
        "budget_enabled": MAX_DIAG_ENABLED_OVERHEAD,
    }, BENCH_PATH)

    assert disabled_overhead <= MAX_DIAG_DISABLED_OVERHEAD, (
        f"dormant diag hooks cost {disabled_overhead:.4%} of an SA "
        f"iteration (budget {MAX_DIAG_DISABLED_OVERHEAD:.1%})"
    )
    assert enabled_overhead <= MAX_DIAG_ENABLED_OVERHEAD, (
        f"diag recording costs {enabled_overhead:.4%} of an SA iteration "
        f"(budget {MAX_DIAG_ENABLED_OVERHEAD:.0%})"
    )


#: Fault-handling budgets (same method again).  Both seams and the
#: armed supervision loop charge per *candidate* (seconds of SA), never
#: per iteration, so the budgets are comfortably tight.
MAX_FAULT_DORMANT_OVERHEAD = 0.001
MAX_FAULT_ARMED_OVERHEAD = 0.01


def test_fault_overhead_guard(tf_model):
    """Fault tolerance must be ~free when nothing faults.

    Three computed costs, all divided by one candidate evaluation's CPU
    (a candidate evaluation is one compiled SA run per workload):

    * the dormant chaos seams — one ``_EVAL_HOOK`` identity check per
      worker evaluation plus one ``_PUT_HOOK`` check per checkpoint
      put (~2 puts/candidate);
    * the armed-policy supervision bookkeeping the pool loop pays per
      fault-free candidate: a ``time.monotonic`` deadline, the
      in-flight dict insert/pop, and the deadline-min wait bound;
    * (recorded only) one deterministic ``RetryPolicy.delay_s``
      derivation — paid per *retry*, so it never touches the fault-free
      path at all.
    """
    from repro.campaign.faults import RetryPolicy

    arch = g_arch()
    batch = 16
    iterations = max(30, int(sa_settings(120).iterations))
    graph = tf_model
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]

    # Dormant seams: module-global None checks (identical shape to the
    # real sites in pool._run_in_worker and store.put).
    class _Seam:
        __slots__ = ("hook",)

        def __init__(self):
            self.hook = None

    seam = _Seam()
    n_off = 1_000_000
    sink = 0
    t0 = time.process_time()
    for _ in range(n_off):
        if seam.hook is not None:
            sink += 1
    cost_seam = (time.process_time() - t0) / n_off
    assert sink == 0
    checks_per_candidate = 3  # 1 eval hook + ~2 put hooks

    # Armed supervision bookkeeping, per fault-free candidate: what
    # the supervised dispatcher (repro.dse.pool.run_tasks) adds over a
    # fire-and-forget map.
    policy = RetryPolicy(max_attempts=3, timeout_s=300.0)
    inflight = {}
    n_sup = 200_000
    t0 = time.process_time()
    for i in range(n_sup):
        deadline = time.monotonic() + policy.timeout_s
        inflight[i] = ((i, None, None), 1, deadline)
        bounds = [d for _, _, d in inflight.values() if d is not None]
        min(bounds)
        inflight.pop(i)
    cost_armed = (time.process_time() - t0) / n_sup

    # Per-retry cost (never on the fault-free path): one seeded jitter
    # derivation.  Recorded so a regression is visible in BENCH_perf.
    n_delay = 50_000
    t0 = time.process_time()
    for i in range(n_delay):
        policy.delay_s("bench-key", 2 + (i & 3))
    cost_delay = (time.process_time() - t0) / n_delay

    run_cpu = _sa_cpu(graph, arch, lmss, batch, iterations)
    assert run_cpu > 0
    dormant_overhead = checks_per_candidate * cost_seam / run_cpu
    armed_overhead = cost_armed / run_cpu

    print_banner("Fault-handling overhead on the fault-free campaign path")
    print(f"dormant seam check:    {cost_seam * 1e9:.1f} ns/check x "
          f"{checks_per_candidate}/candidate -> {dormant_overhead:.6%} "
          f"of a candidate (budget {MAX_FAULT_DORMANT_OVERHEAD:.1%})")
    print(f"armed supervision:     {cost_armed * 1e6:.2f} us/candidate "
          f"-> {armed_overhead:.5%} of a candidate "
          f"(budget {MAX_FAULT_ARMED_OVERHEAD:.0%})")
    print(f"delay derivation:      {cost_delay * 1e6:.2f} us/retry "
          "(off the fault-free path)")
    print(f"candidate CPU:         {run_cpu:.3f} s")

    emit_bench("fault_overhead", {
        "iterations": iterations,
        "batch": batch,
        "model": "TF",
        "seam_cost_s_per_check": cost_seam,
        "seam_checks_per_candidate": checks_per_candidate,
        "armed_cost_s_per_candidate": cost_armed,
        "delay_cost_s_per_retry": cost_delay,
        "run_cpu_s": run_cpu,
        "dormant_overhead_fraction": dormant_overhead,
        "armed_overhead_fraction": armed_overhead,
        "budget_dormant": MAX_FAULT_DORMANT_OVERHEAD,
        "budget_armed": MAX_FAULT_ARMED_OVERHEAD,
    }, BENCH_PATH)

    assert dormant_overhead <= MAX_FAULT_DORMANT_OVERHEAD, (
        f"dormant chaos seams cost {dormant_overhead:.4%} of a candidate "
        f"evaluation (budget {MAX_FAULT_DORMANT_OVERHEAD:.1%})"
    )
    assert armed_overhead <= MAX_FAULT_ARMED_OVERHEAD, (
        f"armed-policy supervision costs {armed_overhead:.4%} of a "
        f"candidate evaluation (budget {MAX_FAULT_ARMED_OVERHEAD:.0%})"
    )
