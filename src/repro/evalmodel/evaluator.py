"""The Gemini Evaluator facade (Sec V-B2, Fig 4).

Combines the parser, the intra-core exploration engine, the traffic
analyzer and the delay/energy models into the two interfaces the paper
describes: per-group evaluation (called inside the SA loop) and
whole-mapping evaluation (chaining groups, propagating where each
group's ofmaps were stored so later groups fetch from the right DRAM).

Group evaluations take one of two paths:

* the **array-native compiled core** (:mod:`repro.compiled`, the
  default): the graph is lowered once into flat numpy tables and
  evaluated through memoized partition/scheme records and the batched
  fold + finalize, so the hot path never walks Python object graphs;
* the **object path** — parse, intra-core schedule, traffic analysis,
  stage times — uncached.  It is the reference oracle
  (``cache=False``).  :meth:`Evaluator.analyze_group` is its one entry:
  the oracle's group evaluation, the event simulator, instruction
  generation and the Fig 9 heatmaps all take their parsed scheme,
  intra-core schedules and traffic from it.

The compiled core memoizes immutable values of the same computation the
object path runs, so both paths are bit-identical; the SA loop gets its
speed from reuse and array layout, not from approximation.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING
from weakref import WeakKeyDictionary

from repro.arch.energy import DEFAULT_ENERGY, EnergyModel
from repro.arch.params import ArchConfig
from repro.core.encoding import LayerGroupMapping
from repro.fabric import Topology, build_topology
from repro.core.parser import ParsedGroup, parse_lms
from repro.evalmodel.breakdown import EnergyBreakdown, GroupEval, MappingEval
from repro.evalmodel.delay import group_delay, stage_times_from_compute
from repro.evalmodel.energy import group_energy_from_intra
from repro.evalmodel.traffic_analysis import GroupTraffic, GroupTrafficAnalyzer
from repro.intracore.cache import IntraCoreEngine
from repro.intracore.result import IntraCoreResult
from repro.perf import PERF
from repro.workloads.graph import DNNGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import CoreStore


class Evaluator:
    """Delay / energy evaluator bound to one architecture instance.

    Network stage time is the paper's analytic most-loaded-link bound;
    :func:`repro.sim.simulate_group_round` checks it against an
    event-driven simulation of the same round.

    ``cache=False`` pins the uncached object path (the behaviour of the
    original single-shot pipeline, kept as the reference oracle);
    results are identical either way.

    ``store`` (a :class:`~repro.core.store.CoreStore`) supplies the
    intra-core engine of this architecture's core and the compiled
    core's shared partition records, which depend on the core
    parameters alone, never on topology, bandwidths or fabric (what an
    explorer or a sweep hands every architecture it maps).  Without
    one, and always for the oracle, the evaluator builds its own.
    """

    def __init__(
        self,
        arch: ArchConfig,
        topo: Topology | None = None,
        energy: EnergyModel = DEFAULT_ENERGY,
        cache: bool = True,
        store: CoreStore | None = None,
    ):
        self.arch = arch
        self.topo = topo if topo is not None else build_topology(arch)
        self.energy = energy
        self.cache_enabled = cache
        self.store = store if cache else None
        self.intracore = (IntraCoreEngine(arch, energy) if self.store is None
                          else store.intracore(arch, energy))
        self._compiled: WeakKeyDictionary[DNNGraph, object] = (
            WeakKeyDictionary()
        )
        self._routes_warmed = False

    # ------------------------------------------------------------------

    def warm(self, graph: DNNGraph | None = None) -> None:
        """Precompute route tables (and ``graph``'s compiled tables).

        Idempotent: the SA controller (once per restart) and the
        warm-start path both call this, so the route warming runs once
        per evaluator and the table lowering once per (evaluator,
        graph) — repeat calls are counted and skipped.
        """
        if self.cache_enabled and not self._routes_warmed:
            from repro.obs.trace import trace

            with PERF.time("evaluator.warm.routes"), \
                    trace("evaluator.warm", topo=self.topo.kind):
                self.topo.core_route_table()
                self.topo.dram_route_tables()
            self._routes_warmed = True
        else:
            PERF.add("evaluator.warm.skipped")
        if graph is not None:
            self.compiled_for(graph)

    def compiled_for(self, graph: DNNGraph):
        """The graph's :class:`~repro.compiled.CompiledEval`, or ``None``
        when the array-native path does not apply to this evaluator."""
        if not self.cache_enabled:
            return None
        ce = self._compiled.get(graph)
        if ce is None:
            from repro.compiled import CompiledEval, compile_graph

            ce = CompiledEval(self, compile_graph(graph), graph)
            self._compiled[graph] = ce
        return ce

    def _n_d2d_interfaces(self) -> int:
        arch = self.arch
        if arch.is_monolithic:
            return 0
        return arch.n_chiplets * 2 * (
            arch.chiplet_cores_x + arch.chiplet_cores_y
        )

    def analyze_group(
        self,
        graph: DNNGraph,
        lms: LayerGroupMapping,
        stored_at: dict[str, int] | None = None,
        flows: bool = False,
    ) -> tuple[ParsedGroup, dict[str, list[IntraCoreResult]], GroupTraffic]:
        """Parse, schedule and analyze one layer group (object path).

        Returns ``(parsed, intra, traffic)``: the parsed scheme, each
        layer's per-part intra-core results (in parsed part order) and
        the group's per-round traffic.  ``flows=True`` also lists every
        transfer in ``traffic.flows`` as a
        :class:`~repro.evalmodel.traffic_analysis.FlowRecord`; link
        volumes and DRAM tallies are the same bits either way.
        ``stored_at`` maps producers in earlier groups to the FD
        selector their ofmaps were written with.
        """
        parsed = parse_lms(graph, lms)
        intra = {
            name: [self.intracore.schedule(part.workload)
                   for part in parsed_layer.parts]
            for name, parsed_layer in parsed.layers.items()
        }
        traffic = GroupTrafficAnalyzer(
            graph, self.arch, self.topo, collect_flows=flows
        ).analyze(parsed, lms, intra, stored_at or {})
        return parsed, intra, traffic

    @staticmethod
    def _intra_aggregate(
        intra: dict[str, list[IntraCoreResult]],
    ) -> tuple[float, float, bool]:
        """``(compute_max, intra_joules, fits)`` of a group's intra-core
        results, folded per layer first, in layer and part order."""
        compute = 0.0
        intra_j = 0.0
        fits = True
        for per_layer in intra.values():
            layer_compute = 0.0
            layer_j = 0.0
            layer_fits = True
            for res in per_layer:
                if res.compute_time > layer_compute:
                    layer_compute = res.compute_time
                layer_j += res.energy
                layer_fits = layer_fits and res.fits
            if layer_compute > compute:
                compute = layer_compute
            intra_j += layer_j
            fits = fits and layer_fits
        return compute, intra_j, fits

    # ------------------------------------------------------------------

    def evaluate_group(
        self,
        graph: DNNGraph,
        lms: LayerGroupMapping,
        batch: int,
        stored_at: dict[str, int] | None = None,
    ) -> GroupEval:
        """Evaluate one layer group for a full inference of ``batch``."""
        stored_at = stored_at or {}
        compiled = self.compiled_for(graph)
        if compiled is not None:
            return compiled.evaluate_group(lms, batch, stored_at)
        _, intra, traffic = self.analyze_group(graph, lms, stored_at)
        compute_max, intra_j, fits = self._intra_aggregate(intra)
        rounds = math.ceil(batch / lms.group.batch_unit)
        depth = len(lms.group)
        times = stage_times_from_compute(self.arch, compute_max, traffic)
        delay = group_delay(times, rounds, depth)
        energy = group_energy_from_intra(
            self.arch, self.energy, intra_j, traffic, rounds,
            times.stage, self._n_d2d_interfaces(),
        )
        return GroupEval(
            delay=delay,
            energy=energy,
            stage_time=times.stage,
            rounds=rounds,
            compute_time=times.compute,
            network_time=times.network,
            dram_time=times.dram,
            dram_round_bytes=tuple(traffic.dram_round_bytes),
            fits=fits,
        )

    def evaluate_mapping(
        self,
        graph: DNNGraph,
        lmss: list[LayerGroupMapping],
        batch: int,
    ) -> MappingEval:
        """Evaluate a whole DNN mapping: chained layer groups.

        Groups must be given in topological order; each group's explicit
        OF selections feed later groups' cross-group ifmap fetches.
        """
        stored_at: dict[str, int] = {}
        total_delay = 0.0
        total_energy = EnergyBreakdown()
        evals = []
        for lms in lmss:
            ev = self.evaluate_group(graph, lms, batch, stored_at)
            evals.append(ev)
            total_delay += ev.delay
            total_energy = total_energy + ev.energy
            for name in lms.group.layers:
                of = lms.scheme(name).fd.ofmap
                if of >= 0:
                    stored_at[name] = of
        return MappingEval(delay=total_delay, energy=total_energy, groups=evals)
