"""Network-traffic heatmaps: the paper's Fig 9 as ASCII art.

Maps the Transformer's heaviest layer group onto the 72-TOPs G-Arch
with the Tangram stripe heuristic and with Gemini's annealed scheme,
then renders both per-link traffic heatmaps and the hop/D2D statistics
that explain why the Gemini scheme wins: congestion is dispersed and
traffic over the (black-bracketed) D2D links shrinks.

Run:  python examples/traffic_heatmap.py
"""

from repro import Evaluator, SASettings, g_arch
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.reporting import format_table, heat_summary, render_ascii
from repro.workloads.models import build


def main():
    graph = build("TF")
    arch = g_arch()
    evaluator = Evaluator(arch)
    groups = partition_graph(graph, arch, batch=64)
    group = max(
        groups,
        key=lambda g: sum(
            graph.layer(n).ofmap_bytes(g.batch_unit) for n in g.layers
        ),
    )
    print(f"layer group: {len(group)} layers, batch unit {group.batch_unit}")
    print(f"layers: {', '.join(group.layers)}\n")

    tangram = initial_lms(graph, group, arch)
    sa = SAController(
        graph, evaluator, [tangram], batch=64,
        settings=SASettings(iterations=500, seed=3),
    )
    gemini = sa.run()[0]

    t = evaluator.analyze_group(graph, tangram)[2].traffic
    g = evaluator.analyze_group(graph, gemini)[2].traffic
    ts, gs = heat_summary(t), heat_summary(g)
    rows = [
        [k, ts[k], gs[k], gs[k] / ts[k] - 1 if ts[k] else 0.0] for k in ts
    ]
    print(format_table(
        ["metric (bytes/round)", "Tangram", "Gemini", "change"], rows,
    ))
    print("\nTangram SPM ([x] marks D2D links):")
    print(render_ascii(t))
    print("\nGemini SPM:")
    print(render_ascii(g))


if __name__ == "__main__":
    main()
