"""Per-layer accounting for the traced pass of the benchmark.

The benchmark times the program's layers from outside: :meth:`LayerTrace.install`
replaces public functions and methods of ``repro`` with wrappers that
record one span each through the program's own tracer
(:data:`repro.obs.trace.TRACER`).  Spans land in memory, ride the
``PERF`` snapshot channel back from pool workers, and are folded into
per-span-name totals by :func:`repro.obs.report.aggregate_trace`.

Every span carries an ``id`` attribute shared by all spans of one unit
of work: ``<tag>/c<index>`` for a campaign candidate, ``<tag>/<name>``
for a sweep scenario, and the tag itself (pass and model) otherwise.

The program's own built-in spans are muted while the benchmark traces,
so each span is one of the boundaries listed in :data:`SPANS` and a
layer's self time is its wall time minus its wrapped children only.
"""

from __future__ import annotations

import functools
import importlib
import os
import sys
import time

#: ``span name -> "module:qualname"`` of the wrapped callable.  A
#: function is replaced in every ``repro`` module that bound it by name
#: (``from x import f``); a method is replaced on its class.
SPANS = {
    "frontend.load_model": "repro.frontend.loader:load_model",
    "frontend.run_sweep": "repro.frontend.scenarios:run_sweep",
    # The sweep's per-scenario task; private, but it is the only
    # boundary a sweep worker runs a scenario through.
    "frontend.scenario": "repro.frontend.scenarios:_run_scenario_full",
    "workloads.build": "repro.workloads.models:build",
    "campaign.runner.init": "repro.campaign.runner:CampaignRunner.__init__",
    "campaign.runner.run": "repro.campaign.runner:CampaignRunner.run",
    "campaign.store.put": "repro.campaign.store:ResultStore.put",
    "campaign.store.get": "repro.campaign.store:ResultStore.get",
    "campaign.keys.candidate_key": "repro.campaign.keys:candidate_key",
    "dse.evaluate_candidate":
        "repro.dse.explorer:DesignSpaceExplorer.evaluate_candidate",
    "dse.pool.init": "repro.dse.pool:PersistentEvalPool.__init__",
    "dse.pool.submit": "repro.dse.pool:PersistentEvalPool.submit",
    "core.engine.map": "repro.core.engine:MappingEngine.map",
    "core.sa.init": "repro.core.sa:SAController.__init__",
    "core.sa.run": "repro.core.sa:SAController.run",
    "core.population.step": "repro.core.population:PopulationWalk.step",
    "core.graphpart.partition_graph": "repro.core.graphpart:partition_graph",
    "core.initial.initial_lms": "repro.core.initial:initial_lms",
    "compiled.compile_graph": "repro.compiled.graph:compile_graph",
    "compiled.session.propose": "repro.compiled.evalcore:GroupSession.propose",
    "compiled.session.commit": "repro.compiled.evalcore:GroupSession.commit",
    "compiled.population.propose":
        "repro.compiled.batch:PopulationGroupState.propose",
    "compiled.population.resolve":
        "repro.compiled.batch:PopulationGroupState.resolve",
    "evalmodel.evaluate_mapping":
        "repro.evalmodel.evaluator:Evaluator.evaluate_mapping",
    "evalmodel.warm": "repro.evalmodel.evaluator:Evaluator.warm",
    "fabric.build_topology": "repro.fabric.registry:build_topology",
    "intracore.schedule": "repro.intracore.cache:IntraCoreEngine.schedule",
    "cost.mc.evaluate": "repro.cost.mc:MCEvaluator.evaluate",
    "baselines.tangram_map": "repro.baselines.tangram:tangram_map",
}

#: The compiled core's named caches whose hit ratios are reported.
COMPILED_CACHES = ("parts", "pairs", "self", "inputs", "slices", "layers")

#: Prefix of the cache counters the map wrapper adds to ``PERF``; like
#: the spans, they reach the parent from pool workers in its snapshots.
_LRU_PREFIX = "bench.lru."

#: Spans kept in memory: about ten times what the busiest traced run
#: records (fabric-sweep, ~110k), so ``obs.trace.dropped`` stays 0.
MAX_SPANS = 1_000_000


def _resolve(target: str):
    module, qualname = target.split(":")
    owner = importlib.import_module(module)
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, attr


def _named_lrus(ceval) -> dict:
    """``name -> (hits, misses)`` of a compiled evaluator's named caches."""
    from repro.perf.counters import LruDict

    return {
        d.name: (d.hits, d.misses)
        for d in vars(ceval).values()
        if isinstance(d, LruDict) and d.name
    }


class LayerTrace:
    """Installs the layer wrappers and turns the spans into metrics."""

    def __init__(self):
        #: Prefix of every span id: the benchmark sets it per pass (and
        #: per model where no pool runs).  Pool workers inherit the
        #: value current when they are forked.
        self.tag = "setup"
        self.id = self.tag
        self.rows: list[list] = []

    def set_tag(self, tag: str) -> None:
        self.tag = self.id = tag

    # -- wrappers ------------------------------------------------------

    def _wrap(self, name: str, fn, id_of=None):
        from repro.obs.trace import TRACER

        layer = self
        if id_of is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                with TRACER.trace(name, id=layer.id):
                    return fn(*args, **kwargs)
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            prev = layer.id
            layer.id = f"{layer.tag}/{id_of(*args, **kwargs)}"
            try:
                with TRACER.trace(name, id=layer.id):
                    return fn(*args, **kwargs)
            finally:
                layer.id = prev
        return wrapper

    def _wrap_map(self, fn):
        """``MappingEngine.map``: a span, plus the compiled caches' hit
        and miss deltas over the call (the caches die with their
        evaluator, so live-cache totals would lose them)."""
        from repro.obs.trace import TRACER
        from repro.perf import PERF

        layer = self

        @functools.wraps(fn)
        def wrapper(engine, graph, *args, **kwargs):
            with TRACER.trace("core.engine.map", id=layer.id):
                ceval = engine.evaluator.compiled_for(graph)
                before = _named_lrus(ceval) if ceval is not None else {}
                result = fn(engine, graph, *args, **kwargs)
                if ceval is not None:
                    for cache, (hits, misses) in _named_lrus(ceval).items():
                        h0, m0 = before.get(cache, (0, 0))
                        PERF.add(f"{_LRU_PREFIX}{cache}.hits", hits - h0)
                        PERF.add(f"{_LRU_PREFIX}{cache}.misses", misses - m0)
            return result
        return wrapper

    def _wrap_sa_run(self, fn):
        """``SAController.run``: a span, plus the run's attempted,
        proposed and accepted moves."""
        from repro.obs.trace import TRACER
        from repro.perf import PERF

        layer = self

        @functools.wraps(fn)
        def wrapper(ctrl, *args, **kwargs):
            with TRACER.trace("core.sa.run", id=layer.id):
                result = fn(ctrl, *args, **kwargs)
            stats = ctrl.stats
            PERF.add("bench.sa.moves",
                     stats.iterations * max(1, ctrl.settings.population))
            PERF.add("bench.sa.proposed", stats.proposed)
            PERF.add("bench.sa.accepted", stats.accepted)
            return result
        return wrapper

    def install(self) -> None:
        """Wrap every :data:`SPANS` target, mute the program's own spans,
        reset ``PERF`` and start recording.  Call before any pool forks,
        so workers inherit the wrappers and an enabled tracer."""
        from repro.perf import PERF

        # ``repro.obs`` re-exports the function ``trace`` under the
        # submodule's name, so fetch the module itself.
        obs_trace = importlib.import_module("repro.obs.trace")

        id_of = {
            "dse.evaluate_candidate":
                lambda explorer, arch, index=0, warm=None: f"c{index}",
            "dse.pool.submit": lambda pool, task: f"c{task[0]}",
            "frontend.scenario": lambda scenario, *a, **k: scenario.name,
        }
        for name, target in SPANS.items():
            owner, attr = _resolve(target)
            fn = getattr(owner, attr)
            if name == "core.engine.map":
                wrapper = self._wrap_map(fn)
            elif name == "core.sa.run":
                wrapper = self._wrap_sa_run(fn)
            else:
                wrapper = self._wrap(name, fn, id_of.get(name))
            if isinstance(owner, type):
                setattr(owner, attr, wrapper)
                continue
            for module in list(sys.modules.values()):
                if getattr(module, "__name__", "").startswith("repro"):
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            setattr(module, key, wrapper)
        null = obs_trace._NULL
        obs_trace.trace = lambda name, /, **attrs: null
        PERF.reset()
        obs_trace.TRACER.enable(max_spans=MAX_SPANS)

    def stop(self) -> None:
        from repro.obs.trace import TRACER

        TRACER.disable()

    # -- metrics -------------------------------------------------------

    def metrics(self, region_s: float, workers: int) -> dict[str, float]:
        """Per-layer metrics of everything recorded since :meth:`install`.

        ``region_s`` is the wall time the trace covers in this process
        (set-up after imports plus the timed phase); ``workers`` the
        pool size the workload ran with.
        """
        from repro.obs.report import aggregate_trace, profile_rows
        from repro.obs.trace import TRACER
        from repro.perf import PERF

        main = os.getpid()
        events = [e for e in TRACER.chrome_trace()["traceEvents"]
                  if e["ph"] == "X"]
        agg = aggregate_trace(events)
        out: dict[str, float] = {}
        for name in SPANS:
            rec = agg.get(name)
            out[f"{name}.calls"] = rec["calls"] if rec else 0
            out[f"{name}.total_s"] = rec["total_ms"] / 1e3 if rec else 0.0
            out[f"{name}.self_s"] = rec["self_ms"] / 1e3 if rec else 0.0

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        def hit_ratio(prefix: str) -> float:
            hits = PERF.get(f"{prefix}.hits")
            return ratio(hits, hits + PERF.get(f"{prefix}.misses"))

        for cache in COMPILED_CACHES:
            out[f"compiled.lru.{cache}.hit_ratio"] = hit_ratio(
                f"{_LRU_PREFIX}compiled.{cache}")
        out["intracore.hit_ratio"] = hit_ratio("intracore")
        out["fabric.route.hit_ratio"] = hit_ratio("fabric.route")
        proposed = PERF.get("bench.sa.proposed")
        out["core.sa.accept_ratio"] = ratio(PERF.get("bench.sa.accepted"),
                                            proposed)
        out["core.sa.proposal_ratio"] = ratio(proposed,
                                              PERF.get("bench.sa.moves"))

        def wall(name: str, workers_side: bool) -> float:
            return sum(e["dur"] for e in events if e["name"] == name
                       and (e["pid"] != main) == workers_side) / 1e6

        out["dse.pool.busy_frac"] = ratio(
            wall("dse.evaluate_candidate", True),
            workers * wall("campaign.runner.run", False))
        out["frontend.sweep.busy_frac"] = ratio(
            wall("frontend.scenario", True),
            workers * wall("frontend.run_sweep", False))
        # Dispatch wait: from the end of a candidate's submit in the
        # parent to the start of its evaluation in a worker.
        submitted = {e["args"]["id"]: e["ts"] + e["dur"] for e in events
                     if e["name"] == "dse.pool.submit"}
        out["dse.pool.wait_s"] = sum(
            max(0.0, e["ts"] - submitted[e["args"]["id"]])
            for e in events
            if e["name"] == "dse.evaluate_candidate" and e["pid"] != main
            and e["args"]["id"] in submitted
        ) / 1e6

        roots = [e for e in events if e["args"]["parent"] == -1]
        main_roots = sum(e["dur"] for e in roots if e["pid"] == main) / 1e6
        out["obs.trace.unwrapped_frac"] = ratio(region_s - main_roots,
                                                region_s)
        busy = sum(e["dur"] for e in roots) / 1e6
        out["obs.trace_overhead_frac"] = ratio(len(events) * span_cost(),
                                               busy)
        # The parent's own drops and those merged from workers.
        out["obs.trace.dropped"] = PERF.get("obs.trace.dropped")
        out["obs.trace.spans"] = len(events)
        out["obs.trace.pids"] = len({e["pid"] for e in events})
        self.rows = profile_rows(agg)[:12]  # heaviest self time first
        return out


def span_cost(n: int = 20_000) -> float:
    """Seconds one wrapped call spends recording its span, measured on
    a private tracer against the same call unwrapped."""
    from repro.obs.trace import Tracer

    tracer = Tracer(max_spans=n)
    tracer.enable()

    def fn():
        return None

    t0 = time.perf_counter()
    for _ in range(n):
        fn()
    plain = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(n):
        with tracer.trace("x", id="y"):
            fn()
    traced = time.perf_counter() - t0
    return max(0.0, traced - plain) / n
