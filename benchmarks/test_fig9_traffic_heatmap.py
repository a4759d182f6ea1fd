"""Fig 9 — network-traffic heatmap, Tangram vs Gemini SPM (Sec VII-C).

Maps a heavy Transformer layer group onto the 72-TOPs G-Arch with (a)
the Tangram stripe heuristic and (b) Gemini's SA-optimized scheme, then
compares the per-link traffic of one pipeline round.

Paper numbers for their example: total hop count -34.2 %, hops on the
intermediate D2D links -74 %, red/orange (hottest) links eliminated.
Shape expectations: Gemini reduces total byte-hops, D2D bytes and the
peak-link load; the serialization time of the most-loaded link drops.
"""

from conftest import print_banner, sa_settings

from repro.arch import g_arch
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator
from repro.reporting import format_table, heat_summary, render_ascii

SA_ITERS = 400


def run_fig9(tf_model):
    arch = g_arch()
    evaluator = Evaluator(arch)
    groups = partition_graph(tf_model, arch, batch=64)
    # Pick the group with the largest inter-layer data volume (the
    # paper's example is the QKV/attention slice of the Transformer).
    group = max(
        groups,
        key=lambda g: sum(
            tf_model.layer(n).ofmap_bytes(g.batch_unit) for n in g.layers
        ),
    )
    tangram_lms = initial_lms(tf_model, group, arch)
    controller = SAController(
        tf_model, evaluator, [tangram_lms], batch=64,
        settings=sa_settings(SA_ITERS, seed=3),
    )
    gemini_lms = controller.run()[0]
    t_traffic = evaluator.analyze_group(tf_model, tangram_lms)[2]
    g_traffic = evaluator.analyze_group(tf_model, gemini_lms)[2]
    return t_traffic, g_traffic


def test_fig9_traffic_heatmap(tf_model, benchmark):
    t_traffic, g_traffic = benchmark.pedantic(
        run_fig9, args=(tf_model,), rounds=1, iterations=1
    )
    t_sum = heat_summary(t_traffic.traffic)
    g_sum = heat_summary(g_traffic.traffic)
    rows = [
        [key, t_sum[key], g_sum[key],
         (g_sum[key] / t_sum[key] - 1) if t_sum[key] else 0.0]
        for key in t_sum
    ]
    print_banner("Fig 9: per-round link traffic on 72-TOPs G-Arch "
                 "(Tangram vs Gemini SPM)")
    print(format_table(
        ["metric (bytes)", "Tangram", "Gemini", "change"], rows,
        floatfmt=".3g",
    ))
    print("\nTangram heatmap:")
    print(render_ascii(t_traffic.traffic))
    print("\nGemini heatmap:")
    print(render_ascii(g_traffic.traffic))
    # Gemini disperses congestion: peak link load drops...
    assert g_sum["max_link_bytes"] < t_sum["max_link_bytes"]
    # ...and the total hop count decreases (paper: -34.2%).
    assert g_sum["total_hop_bytes"] < t_sum["total_hop_bytes"]
    # D2D pressure is reduced (paper: -74% on the middle D2D links).
    assert g_sum["d2d_bytes"] < t_sum["d2d_bytes"]
    # Bottleneck serialization time (network stage time) improves.
    assert g_traffic.traffic.serialization_time() < \
        t_traffic.traffic.serialization_time()
