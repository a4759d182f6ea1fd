"""Validation — the two delay analyzers agree on ordering.

The Evaluator's analytic stage-time bound drives the SA search
(Sec V-B2); this bench validates it against the store-and-forward
discrete-event simulator across Tangram and Gemini schemes of several
Transformer layer groups on G-Arch.

Expectations: ``bound <= event-sim`` for each scheme (the fluid
most-loaded-link bound against per-hop serialization + queueing), and
the *ranking* of schemes (Gemini better than Tangram) is preserved by
both — i.e., the cheap bound the search uses does not mislead it.
"""

from conftest import print_banner, sa_settings

from repro.arch import g_arch
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator
from repro.reporting import format_table
from repro.sim import simulate_group_round

SA_ITERS = 250


def network_times(graph, arch, lms):
    bound_ev = Evaluator(arch).evaluate_group(graph, lms, batch=8)
    stats, _ = simulate_group_round(graph, arch, lms)
    return bound_ev.network_time, stats.makespan


def run_validation(tf_model):
    arch = g_arch()
    evaluator = Evaluator(arch)
    groups = partition_graph(tf_model, arch, batch=8)
    heavy = sorted(groups, key=len, reverse=True)[:3]
    rows = []
    for i, group in enumerate(heavy):
        tangram = initial_lms(tf_model, group, arch)
        gemini = SAController(
            tf_model, evaluator, [tangram], batch=8,
            settings=sa_settings(SA_ITERS, seed=i),
        ).run()[0]
        for label, lms in (("tangram", tangram), ("gemini", gemini)):
            b, s = network_times(tf_model, arch, lms)
            rows.append([f"group{i}", label, b * 1e6, s * 1e6])
    return rows


def test_delay_model_validation(tf_model, benchmark):
    rows = benchmark.pedantic(
        run_validation, args=(tf_model,), rounds=1, iterations=1
    )
    print_banner(
        "Delay-model validation: analytic bound vs event sim "
        "(network/stage times, us)"
    )
    print(format_table(
        ["group", "scheme", "bound", "event sim"], rows, floatfmt=".2f",
    ))
    by = {(r[0], r[1]): (r[2], r[3]) for r in rows}
    for key, (bound, sim) in by.items():
        # Fidelity ordering within each scheme.
        assert bound <= sim * (1 + 1e-6), key
    # Scheme ranking is preserved by both analyzers: the SA-optimized
    # scheme never looks worse under the simulator than the stripe one.
    groups = {r[0] for r in rows}
    for g in groups:
        for idx in range(2):
            assert by[(g, "gemini")][idx] <= by[(g, "tangram")][idx] * 1.05, \
                (g, idx)
