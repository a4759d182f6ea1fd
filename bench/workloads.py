"""One run of one benchmark workload, in a fresh process.

``bench/run.py`` starts this script with the run's work directory as
the current directory and reads the JSON object it prints as its last
line of standard output.  The process

1. imports the program and sets the workload up (models built and
   compiled, candidate lists drawn) — the set-up time is counted from
   the moment the parent started this process;
2. runs the timed phase: whole passes over the workload's work list
   until ``--seconds`` have elapsed, and at least :data:`MIN_PASSES`;
3. with ``--trace 1``, records spans around every layer boundary of
   :mod:`layers` from the end of the imports to the end of the timed
   phase;
4. checks the outputs, outside the timed phase.

Simulated (modelled-hardware) results come from the first
:data:`MIN_PASSES` passes only, so they depend on ``--seed`` alone, never
on how fast the host ran.
"""

import os
import time

SPAWN_T = float(os.environ.get("BENCH_SPAWN_T") or time.time())

import argparse
import json
import math
import random
import resource
import statistics
import sys
import traceback
from dataclasses import replace
from itertools import product
from pathlib import Path

import numpy  # noqa: F401 - part of the measured imports

# Patched functions are called through their modules, so the layer
# wrappers the traced pass installs are the ones that run.
import repro.baselines as baselines
import repro.compiled as compiled
import repro.frontend.loader as loader
import repro.frontend.scenarios as scenarios
from repro.arch import g_arch, s_arch
from repro.campaign import CampaignRunner, CampaignSpec
from repro.cli.main import table1_candidates
from repro.core import MappingEngine, MappingEngineSettings, SASettings
from repro.dse import Workload, geomean
from repro.evalmodel.evaluator import Evaluator
from repro.fabric import parse_fabric
from repro.io import load_mapping

from layers import LayerTrace

IMPORT_S = time.time() - SPAWN_T

#: Passes every run completes; the simulated results are theirs.
MIN_PASSES = 2
#: Campaign re-runs per cold campaign in the correctness gate.
RERUNS = 5


def scaled(n: int, scale: float, lo: int = 1) -> int:
    return max(lo, round(n * scale))


def load_graphs(models) -> dict:
    """Build and compile each model (set-up work every workload pays)."""
    graphs = {}
    for model in models:
        graph, _ = loader.load_model(model)
        compiled.compile_graph(graph)
        graphs[model] = graph
    return graphs


def engine(arch, sa: SASettings) -> MappingEngine:
    return MappingEngine(arch, settings=MappingEngineSettings(sa=sa))


def oracle_failures(maps) -> list[str]:
    """Re-evaluate ``(graph, batch, arch, lmss, delay, energy)`` records
    with the uncached object path; delay and energy must be float-equal."""
    failures = []
    for graph, batch, arch, lmss, delay, energy in maps:
        ev = Evaluator(arch, cache=False).evaluate_mapping(graph, lmss, batch)
        if (ev.delay, ev.energy.total) != (delay, energy):
            failures.append(
                f"{graph.name}@b{batch} on {arch.name}: oracle "
                f"({ev.delay!r}, {ev.energy.total!r}) != "
                f"({delay!r}, {energy!r})")
    return failures


class BenchWorkload:
    """Counters and records shared by the four workloads.

    A workload adds ``setup()``; ``pass_items(p)``, the items of pass
    ``p`` as ``(operations, callable)`` pairs, every pass with fresh
    search seeds; and ``check()``, the output checks' failure messages.
    """

    def __init__(self, seed: int, scale: float, workers: int,
                 layer: LayerTrace):
        self.seed = seed
        self.scale = scale
        self.workers = workers
        self.layer = layer
        self.iters = 0          # SA iterations (x walkers) in the timed phase
        self.attempted = 0
        self.failed = 0
        self.edps: list[float] = []   # simulated EDPs, first passes only
        self.maps: list[tuple] = []   # mappings for the oracle check
        self.notes: dict = {}
        self.resume_s = 0.0     # median campaign re-run wall (checks)

    def keep(self, p: int, graph, batch: int, result, sim=True) -> None:
        """Record a mapping for the checks and, from the first passes,
        a search result's EDP."""
        self.maps.append((graph, batch, result.arch, result.lmss,
                          result.delay, result.energy))
        if sim and p < MIN_PASSES:
            self.edps.append(result.edp)


class Fig5Compare(BenchWorkload):
    """Fig 5: S-Arch+T-Map, S-Arch+G-Map and G-Arch+G-Map per DNN."""

    # MBV2 first: a scaled-down run keeps the cheapest model.
    MODELS = ("MBV2", "TF", "RN-50", "GN")
    BATCHES = (64, 1)
    ITERATIONS = 1000

    def setup(self):
        self.graphs = load_graphs(self.MODELS[:scaled(4, self.scale)])
        self.batches = self.BATCHES[:scaled(2, self.scale)]
        self.s_arch, self.g_arch = s_arch(), g_arch()
        self.iterations = scaled(self.ITERATIONS, self.scale, 2)
        self.perf, self.eff = [], []

    def pass_items(self, p):
        cells = product(self.graphs, self.batches)
        return [(3, lambda k=k, m=m, b=b: self.compare(p, k, m, b))
                for k, (m, b) in enumerate(cells)]

    def compare(self, p, k, model, batch):
        self.layer.set_tag(f"p{p}/{model}@b{batch}")
        graph = self.graphs[model]
        seed = self.seed + 1000 * p + k
        base = baselines.tangram_map(graph, self.s_arch, batch)
        sg = engine(self.s_arch, SASettings(iterations=self.iterations,
                                            seed=seed)).map(graph, batch)
        gg = engine(self.g_arch, SASettings(iterations=self.iterations,
                                            seed=seed + 50)).map(graph, batch)
        self.iters += sg.sa_stats.iterations + gg.sa_stats.iterations
        self.keep(p, graph, batch, base, sim=False)
        self.keep(p, graph, batch, sg)
        self.keep(p, graph, batch, gg)
        if p == 0:
            self.perf.append(base.delay / gg.delay)
            self.eff.append(base.energy / gg.energy)

    def check(self):
        # The model is not validated against hardware; the paper's
        # numbers are printed beside it, not compared.
        self.notes["speedup_vs_tmap"] = geomean(self.perf)
        self.notes["energy_gain_vs_tmap"] = geomean(self.eff)
        self.notes["paper"] = "1.98x performance, 1.41x energy efficiency"
        return oracle_failures(self.maps)


class Population(BenchWorkload):
    """Cold population walks: 64 lockstep walkers over 4 tempering rungs."""

    # MBV2 first: a scaled-down run keeps the cheapest model.
    MODELS = ("MBV2", "TF", "RN-50", "GN")
    BATCH = 4
    STEPS = 150
    WALKERS = 64
    RUNGS = 4

    def setup(self):
        self.graphs = load_graphs(self.MODELS[:scaled(4, self.scale)])
        self.arch = g_arch()
        self.steps = scaled(self.STEPS, self.scale, 2)

    def pass_items(self, p):
        return [(1, lambda k=k, m=m: self.walk(p, k, m))
                for k, m in enumerate(self.graphs)]

    def walk(self, p, k, model):
        self.layer.set_tag(f"p{p}/{model}@b{self.BATCH}")
        graph = self.graphs[model]
        sa = SASettings(iterations=self.steps, seed=self.seed + 1000 * p + k,
                        population=self.WALKERS, tempering=self.RUNGS)
        result = engine(self.arch, sa).map(graph, self.BATCH)
        self.iters += result.sa_stats.iterations * self.WALKERS
        self.keep(p, graph, self.BATCH, result)

    def check(self):
        return oracle_failures(self.maps)


class Table1Campaign(BenchWorkload):
    """Cold Table-I campaigns (72-TOPs laptop slice), 2 pool workers.

    In grid order the slice's 96 candidates come in runs of
    :data:`STRATUM` sharing one chiplet layout (they differ in NoC
    bandwidth and GLB size, and cost about the same to evaluate).  Pass
    ``p`` takes one seed-chosen candidate of every run, so each pass is
    the same balanced sample of layouts whatever the seed, and four
    passes cover the slice.
    """

    MODELS = ("TF", "RN-50")
    BATCH = 8
    ITERATIONS = 300
    STRATUM = 4

    def setup(self):
        graphs = load_graphs(self.MODELS[:scaled(2, self.scale)])
        self.workloads = [Workload(g, self.BATCH) for g in graphs.values()]
        candidates = table1_candidates(72, False)
        # At least two per pass, so the pool always runs.
        n = scaled(len(candidates) // self.STRATUM, self.scale, 2)
        rng = random.Random(self.seed)
        self.strata = [
            rng.sample(candidates[i * self.STRATUM:(i + 1) * self.STRATUM],
                       self.STRATUM)
            for i in range(n)
        ]
        self.iterations = scaled(self.ITERATIONS, self.scale, 2)
        self.runs = []

    def pass_items(self, p):
        return [(len(self.strata), lambda: self.campaign(p))]

    def campaign(self, p):
        self.layer.set_tag(f"p{p}")
        candidates = [stratum[p % self.STRATUM] for stratum in self.strata]
        spec = CampaignSpec(
            name="table1", candidates=candidates, workloads=self.workloads,
            sa=SASettings(iterations=self.iterations,
                          seed=self.seed + 1000 * (p // self.STRATUM)),
        )
        home = Path(f"campaign-{p}")
        with CampaignRunner(spec, home) as runner:
            report = runner.run(workers=self.workers)
        self.failed += len(candidates) - report.evaluated
        self.iters += report.evaluated * len(self.workloads) * self.iterations
        self.runs.append((spec, home))
        if p < MIN_PASSES:
            self.edps += [r.edp for r in report.done]

    def check(self):
        failures, resumes = [], []
        for spec, home in self.runs:
            for _ in range(RERUNS):
                t0 = time.perf_counter()
                with CampaignRunner(spec, home) as runner:
                    report = runner.run(workers=self.workers)
                resumes.append(time.perf_counter() - t0)
                n = len(spec.candidates)
                if (report.evaluated, report.store_hits, report.failed) \
                        != (0, n, 0):
                    failures.append(
                        f"{home} re-run: evaluated {report.evaluated}, "
                        f"served {report.store_hits}/{n}, failed "
                        f"{report.failed}")
        self.resume_s = statistics.median(resumes)
        return failures


class FabricSweep(BenchWorkload):
    """A scenario sweep over five fabrics, 2 workers, no store."""

    # MBV2 first: a scaled-down sweep keeps the cheapest model.
    MODELS = ("MBV2", "BERT", "UNet", "GPT-Dec")
    BATCHES = (1, 16)
    FABRICS = ("mesh", "mesh:dimension-reversal", "folded-torus", "cmesh:c2",
               "ring")
    ITERATIONS = 600

    def setup(self):
        for fabric in self.FABRICS:
            parse_fabric(fabric)
        models = self.MODELS[:scaled(4, self.scale)]
        for model in models:
            loader.validate_model_source(model)
        self.grid = scenarios.grid_scenarios(
            list(models), list(self.BATCHES[:scaled(2, self.scale)]),
            ["g-arch"], iters=scaled(self.ITERATIONS, self.scale, 2),
            fabrics=list(self.FABRICS),
        )
        self.first = None   # (scenarios, summaries, out dir) of pass 0

    def pass_items(self, p):
        return [(len(self.grid), lambda: self.sweep(p))]

    def sweep(self, p):
        self.layer.set_tag(f"p{p}")
        cells = [replace(sc, seed=self.seed + 1000 * p) for sc in self.grid]
        out = Path(f"sweep-{p}")
        summaries = scenarios.run_sweep(cells, out_dir=out,
                                        workers=self.workers)
        self.iters += sum(sc.iters for sc in cells)
        if p < MIN_PASSES:
            self.edps += [s["edp"] for s in summaries]
        if p == 0:
            self.first = (cells, summaries, out)

    def check(self):
        """Oracle re-evaluation of one seed-chosen scenario per fabric,
        from the mapping file the first sweep wrote."""
        if self.first is None:
            return ["the first sweep did not finish"]
        cells, summaries, out = self.first
        failures = []
        for f, fabric in enumerate(self.FABRICS):
            on = [i for i, sc in enumerate(cells) if sc.fabric == fabric]
            i = on[(self.seed + f) % len(on)]
            sc, summary = cells[i], summaries[i]
            graph, _ = loader.load_model(sc.model)
            lmss = load_mapping(out / sc.slug() / "mapping.json")
            ev = Evaluator(scenarios.scenario_arch(sc), cache=False) \
                .evaluate_mapping(graph, lmss, sc.batch)
            if (ev.delay, ev.energy.total) != (summary["delay_s"],
                                               summary["energy_j"]):
                failures.append(f"{sc.name}: oracle disagrees with sweep")
        return failures


WORKLOADS = {
    "fig5-compare": Fig5Compare,
    "population": Population,
    "table1-campaign": Table1Campaign,
    "fabric-sweep": FabricSweep,
}


def timed_phase(w: BenchWorkload, seconds: float) -> list[float]:
    """Run whole passes until ``seconds`` have elapsed and at least
    :data:`MIN_PASSES` are done (so the mix of work never depends on
    where the clock stopped); returns each pass's wall time."""
    deadline = time.perf_counter() + seconds
    walls = []
    while len(walls) < MIN_PASSES or time.perf_counter() < deadline:
        p = len(walls)
        t0 = time.perf_counter()
        for ops, run in w.pass_items(p):
            w.attempted += ops
            try:
                run()
            except Exception:  # noqa: BLE001 - counted, run continues
                traceback.print_exc()
                w.failed += ops
        walls.append(time.perf_counter() - t0)
    return walls


def cpu_seconds(usage: resource.struct_rusage) -> float:
    return usage.ru_utime + usage.ru_stime


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workers = min(2, len(os.sched_getaffinity(0)))
    layer = LayerTrace()
    if args.trace:
        layer.install()
    region0 = time.perf_counter()
    w = WORKLOADS[args.workload](args.seed, args.scale, workers, layer)
    w.setup()
    setup_s = time.time() - SPAWN_T
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    children0 = cpu_seconds(resource.getrusage(resource.RUSAGE_CHILDREN))
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    pass_s = timed_phase(w, args.seconds)
    wall = time.perf_counter() - t0
    # Pool workers are joined by the end of each pass, so their CPU
    # time is in RUSAGE_CHILDREN by now.
    cpu = time.process_time() - cpu0 + cpu_seconds(
        resource.getrusage(resource.RUSAGE_CHILDREN)) - children0
    layers = {}
    if args.trace:
        layer.stop()
        layers = layer.metrics(time.perf_counter() - region0, workers)
        layers["setup.import_s"] = IMPORT_S
    peak_kib = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                   resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    failures = w.check()
    if args.trace:
        layers["campaign.resume_s"] = w.resume_s
    iters = max(w.iters, 1)
    print(json.dumps({
        "setup_s": setup_s,
        "import_s": IMPORT_S,
        "wall_s": wall,
        "pass_s": pass_s,
        "workers": workers,
        "attempted": w.attempted,
        "failed": w.failed,
        "failures": failures,
        "notes": w.notes,
        "end_to_end": {
            "sa_iters_per_s": w.iters / wall,
            "cpu_us_per_iter": cpu / iters * 1e6,
            "peak_rss_mb": peak_kib / 1024,
            "edp_geomean": geomean(w.edps) if w.edps else math.nan,
        },
        "per_layer": layers,
        "layer_rows": layer.rows,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
