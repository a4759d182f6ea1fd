"""The Mapping Engine facade (Fig 4, right side).

Model parsing (done by the workloads package), graph partitioning, the
stripe-based initial scheme, SA-based LP SPM exploration and final
evaluation, wrapped into one call: :meth:`MappingEngine.map`.

With ``SASettings(iterations=0)`` the engine degrades to the baseline
Tangram flow (DP graph partition + stripe heuristic SPM, no SA), which
is exactly the paper's T-Map baseline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from repro.arch.energy import DEFAULT_ENERGY, EnergyModel
from repro.arch.params import ArchConfig
from repro.fabric import Topology
from repro.core.encoding import LayerGroup, LayerGroupMapping, validate_lms
from repro.core.graphpart import (
    PartitionInputs,
    partition_graph,
    partition_inputs,
)
from repro.core.initial import initial_lms
from repro.core.sa import SAController, SASettings, SAStats
from repro.evalmodel.breakdown import MappingEval
from repro.evalmodel.evaluator import Evaluator
from repro.workloads.graph import DNNGraph

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.store import CoreStore


@dataclass
class MappingResult:
    """Outcome of mapping one DNN onto one architecture."""

    arch: ArchConfig
    evaluation: MappingEval
    lmss: list[LayerGroupMapping]
    groups: list[LayerGroup]
    sa_stats: SAStats | None = None
    #: Wall seconds of each independent SA restart (empty without SA).
    #: The spread across restarts is the seed-robustness signal the
    #: ledger reports as mean/variance per candidate.
    restart_wall_times: list[float] = field(default_factory=list)
    #: Per-restart search diagnostics (:attr:`SAStats.diag` of every
    #: restart, in restart order); empty unless ``SASettings.diag``.
    restart_diags: list[dict] = field(default_factory=list)

    @property
    def delay(self) -> float:
        return self.evaluation.delay

    @property
    def energy(self) -> float:
        return self.evaluation.energy.total

    @property
    def edp(self) -> float:
        return self.evaluation.edp


@dataclass
class MappingEngineSettings:
    sa: SASettings = field(default_factory=SASettings)
    max_group_layers: int = 10
    #: Independent SA restarts (different seeds); the best run wins.
    #: Restarts trade wall-clock for robustness against unlucky seeds.
    restarts: int = 1


def _initial_mapping(
    graph: DNNGraph, batch: int, max_group_layers: int,
    arch: PartitionInputs,
) -> list[LayerGroupMapping]:
    groups = partition_graph(
        graph, arch, batch, max_group_layers=max_group_layers,
    )
    lmss = [initial_lms(graph, g, arch) for g in groups]
    for lms in lmss:
        validate_lms(graph, lms, arch.n_cores, arch.n_dram)
    return lmss


class MappingEngine:
    """Gemini's Mapping Engine bound to one architecture.

    ``store`` (a :class:`~repro.core.store.CoreStore`) shares intra-core
    schedules, partition records and initial mappings with the other
    engines its owner builds; it is passed on to the
    :class:`Evaluator`.  Without one the engine builds its own.
    """

    def __init__(
        self,
        arch: ArchConfig,
        energy: EnergyModel = DEFAULT_ENERGY,
        topo: Topology | None = None,
        settings: MappingEngineSettings | None = None,
        store: CoreStore | None = None,
    ):
        self.arch = arch
        self.settings = settings or MappingEngineSettings()
        self.store = store
        self.evaluator = Evaluator(arch, topo=topo, energy=energy,
                                   store=store)

    # ------------------------------------------------------------------

    def initial_mapping(
        self, graph: DNNGraph, batch: int
    ) -> list[LayerGroupMapping]:
        """Graph partition + stripe heuristic (the T-Map baseline).

        With a store, memoized by everything it reads: the graph, the
        batch, ``max_group_layers`` and the arch's
        :class:`~repro.core.graphpart.PartitionInputs`.
        """
        key = (graph, batch, self.settings.max_group_layers,
               partition_inputs(self.arch))
        if self.store is None:
            return _initial_mapping(*key)
        return list(self.store.initial_mapping(
            key, lambda: _initial_mapping(*key)
        ))

    def _check_initial(
        self, graph: DNNGraph, lmss: list[LayerGroupMapping]
    ) -> None:
        """Validate an injected starting point (e.g. a warm start)."""
        from repro.errors import InvalidMappingError

        covered: list[str] = []
        for lms in lmss:
            covered.extend(lms.group.layers)
        if sorted(covered) != sorted(graph.layer_names()):
            raise InvalidMappingError(
                "initial mapping does not cover the graph's layers "
                "exactly once"
            )
        for lms in lmss:
            validate_lms(graph, lms, self.arch.n_cores, self.arch.n_dram)

    def map(
        self,
        graph: DNNGraph,
        batch: int,
        initial: list[LayerGroupMapping] | None = None,
    ) -> MappingResult:
        """Full Gemini mapping flow for one DNN.

        ``initial`` replaces the graph-partition + stripe-heuristic
        starting point — campaigns pass the stored mapping of a nearby
        architecture here to warm-start the SA.  It is validated against
        *this* architecture and must cover the graph exactly; raises
        :class:`~repro.errors.InvalidMappingError` otherwise (callers
        fall back to a cold start).
        """
        import time
        from dataclasses import replace as dc_replace

        from repro.obs.trace import trace

        if initial is None:
            lmss = self.initial_mapping(graph, batch)
        else:
            lmss = list(initial)
            self._check_initial(graph, lmss)
        stats = None
        restart_wall_times: list[float] = []
        restart_diags: list[dict] = []
        if self.settings.sa.iterations > 0:
            best_lmss, best_cost = None, None
            for restart in range(max(1, self.settings.restarts)):
                settings = dc_replace(
                    self.settings.sa, seed=self.settings.sa.seed + restart
                )
                controller = SAController(
                    graph, self.evaluator, lmss, batch, settings
                )
                t0 = time.perf_counter()
                with trace("sa.restart", restart=restart,
                           seed=settings.seed):
                    candidate = controller.run()
                restart_wall_times.append(time.perf_counter() - t0)
                if controller.stats.diag is not None:
                    restart_diags.append(controller.stats.diag)
                cost = sum(controller.best_costs)
                if best_cost is None or cost < best_cost:
                    best_lmss, best_cost, stats = (
                        candidate, cost, controller.stats
                    )
            lmss = best_lmss
        for lms in lmss:
            validate_lms(graph, lms, self.arch.n_cores, self.arch.n_dram)
        evaluation = self.evaluator.evaluate_mapping(graph, lmss, batch)
        return MappingResult(
            arch=self.arch,
            evaluation=evaluation,
            lmss=lmss,
            groups=[lms.group for lms in lmss],
            sa_stats=stats,
            restart_wall_times=restart_wall_times,
            restart_diags=restart_diags,
        )
