"""Population-batched evaluation throughput.

Every compiled evaluation runs through the batched core: N resident
mappings stack into ``(nb, N, lanes)`` row buffers and evaluate with one
vectorized fold (:meth:`PopulationGroupState.evaluate_current`).  The
per-mapping baseline is the same core's N=1 call — one resident
single-walker state per mapping, folded and finalized one at a time.
This bench measures the *warm evaluation core* — the
mappings-evaluated/sec of N annealed, resident states — which is the
regime the batched fold actually accelerates: both paths share the
block-construction caches, so on a cold SA walk the per-candidate
novel-block cost dominates either way (that walk-level throughput is
recorded alongside for transparency, not asserted).

Methodology: anneal one population of 256 walkers per model (so the
states are *distinct*, genuinely annealed mappings, not copies), take
the first N walkers' group-0 states for each batch size, assert the
batched results are bit-identical to the N=1 call, then time
repeated warm evaluations of both.  Ratios use process CPU time —
wall clock on shared runners can stall one side by 2x and flake any
floor.  Every sample is recorded with its mean/var/n in
``BENCH_perf.json`` so run-to-run drift stays visible next to the
asserted ratio.
"""

import os
import time

from conftest import SCALE, print_banner

from repro.arch import g_arch
from repro.compiled.batch import PopulationGroupState
from repro.core import SAController
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.sa import SASettings
from repro.evalmodel import Evaluator
from repro.perf import emit_bench
from repro.reporting import format_table
from repro.workloads.models import build

BENCH_PATH = os.path.join(os.path.dirname(__file__), "..", "BENCH_perf.json")

MODELS = ("RN-50", "TF", "GN", "MBV2")
BATCH_SIZES = (1, 16, 64, 256)
POPULATION = max(BATCH_SIZES)
BATCH = 4

#: The target recorded (which models meet it is in the payload):
#: batched warm evaluation >= 2x the core's N=1 call per mapping at
#: population 256.
TARGET_SPEEDUP = 2.0

#: Conservative floor asserted in CI for the *best* model at
#: population 256 — measured ratios sit at 1.8-2.5x on a 2-vCPU
#: shared host, but container noise gets a wide berth.
MIN_BEST_SPEEDUP_AT_256 = 1.4


def _identical(a, b) -> bool:
    return a.delay == b.delay and a.energy.total == b.energy.total


def _anneal(name: str, iterations: int):
    """Anneal a population of POPULATION walkers; returns the walk's
    per-walker group-0 states plus walk-level throughput numbers."""
    graph = build(name)
    arch = g_arch()
    groups = partition_graph(graph, arch, batch=BATCH)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    ev = Evaluator(arch, cache=True)
    ctrl = SAController(
        graph, ev, lmss, BATCH,
        SASettings(iterations=iterations, seed=3, population=POPULATION),
    )
    t0 = time.process_time()
    ctrl.run()
    cpu = time.process_time() - t0
    walk = ctrl._population_walk
    candidates = iterations * POPULATION
    return (
        ev.compiled_for(graph),
        [walk.lms[w][0] for w in range(POPULATION)],
        list(walk.stored),
        candidates / cpu if cpu > 0 else 0.0,
    )


def test_population_eval_throughput(benchmark):
    iterations = max(8, int(40 * SCALE))

    def run():
        rows, record = [], {}
        for name in MODELS:
            ceval, states, stored, walk_cps = _anneal(name, iterations)
            record[name] = {"walk_candidates_per_sec": walk_cps}
            for n in BATCH_SIZES:
                sub, sub_stored = states[:n], stored[:n]
                pgs = PopulationGroupState(ceval, sub, BATCH, sub_stored)
                singles = [
                    PopulationGroupState(ceval, [sub[w]], BATCH,
                                         [sub_stored[w]])
                    for w in range(n)
                ]
                batched = pgs.evaluate_current()
                serial = [
                    ceval.evaluate_group(sub[w], BATCH, sub_stored[w])
                    for w in range(n)
                ]
                for w in range(n):
                    assert _identical(batched[w], serial[w]), (
                        f"{name} n={n} walker {w}: batched result "
                        f"diverges from the per-mapping path"
                    )
                rep = max(1, int(6000 * SCALE) // n)
                samples = {"batched": [], "serial": []}
                # Interleave the two paths so host-speed drift hits
                # them equally; keep the best of three (the asserted
                # ratio) plus every sample (recorded with mean/var).
                for _ in range(3):
                    t0 = time.process_time()
                    for _ in range(rep):
                        pgs.evaluate_current()
                    cpu = time.process_time() - t0
                    samples["batched"].append(
                        n * rep / cpu if cpu > 0 else 0.0
                    )
                    t0 = time.process_time()
                    for _ in range(rep):
                        for single in singles:
                            single.evaluate_current()
                    cpu = time.process_time() - t0
                    samples["serial"].append(
                        n * rep / cpu if cpu > 0 else 0.0
                    )
                best = {k: max(v) for k, v in samples.items()}
                rec = {
                    "serial_mappings_per_sec": best["serial"],
                    "batched_mappings_per_sec": best["batched"],
                    "speedup": best["batched"] / best["serial"],
                }
                for label, vals in samples.items():
                    mean = sum(vals) / len(vals)
                    var = sum((v - mean) ** 2 for v in vals) / len(vals)
                    rec[f"{label}_mappings_per_sec_samples"] = vals
                    rec[f"{label}_mappings_per_sec_mean"] = mean
                    rec[f"{label}_mappings_per_sec_var"] = var
                record[name][f"population_{n}"] = rec
                rows.append([
                    name, str(n), f"{best['serial']:.0f}",
                    f"{best['batched']:.0f}",
                    f"{best['batched'] / best['serial']:.2f}x",
                ])
        return rows, record

    rows, record = benchmark.pedantic(run, rounds=1, iterations=1)
    print_banner(
        "Population-batched warm evaluation: per-mapping vs batched fold"
    )
    print(format_table(
        ["model", "population", "per-mapping m/s", "batched m/s",
         "speedup"],
        rows,
    ))
    met = [
        name for name, rec in record.items()
        if rec[f"population_{POPULATION}"]["speedup"] >= TARGET_SPEEDUP
    ]
    print(f"models meeting the {TARGET_SPEEDUP}x batched-eval target at "
          f"population {POPULATION}: {met or 'none this run'}")
    emit_bench("population_sa", {
        "arch": "g-arch",
        "batch": BATCH,
        "population": POPULATION,
        "anneal_iterations": iterations,
        "target_speedup": TARGET_SPEEDUP,
        "models": record,
        "models_meeting_target": met,
    }, BENCH_PATH)
    best_at_256 = max(
        rec[f"population_{POPULATION}"]["speedup"]
        for rec in record.values()
    )
    assert best_at_256 >= MIN_BEST_SPEEDUP_AT_256, (
        f"batched warm evaluation only {best_at_256:.2f}x the "
        f"per-mapping path at population {POPULATION} on the best model"
    )
