"""Simulated-annealing LP SPM exploration engine (Sec V-B1).

In each iteration the controller picks a layer group (probability
proportional to the log-size of its optimization space, Sec IV-B), draws
one of the five operators, and evaluates the modified scheme with the
Evaluator under the ``E^beta * D^gamma`` objective.  Improvements are
always accepted; regressions are accepted with probability
``exp(-rel_delta / T)`` under a geometrically cooling temperature.

The loop itself lives in :class:`repro.core.population.PopulationWalk`:
the paper's single walk is its one-walker case, and ``population > 1``
anneals several walkers in lockstep.

Because D2D links have lower bandwidth and higher energy, moves that add
D2D traffic raise the cost and are increasingly rejected as T falls —
the mechanism by which Gemini "automatically optimizes D2D
communication" (Sec V-B1, demonstrated in Sec VII-C).
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field

from repro.core.encoding import LayerGroupMapping
from repro.core.space import gemini_space_size, log10_size
from repro.errors import SearchError
from repro.evalmodel.evaluator import Evaluator
from repro.workloads.graph import DNNGraph


@dataclass
class SASettings:
    """Hyper-parameters of the annealing schedule."""

    iterations: int = 400
    t_start: float = 0.30
    t_end: float = 0.005
    beta: float = 1.0   # energy exponent
    gamma: float = 1.0  # delay exponent
    seed: int = 0
    #: Operator names to draw from (None = all five).  Used by the
    #: operator-ablation study; the paper's search always uses all five.
    operators: tuple[str, ...] | None = None
    #: Walkers annealed in lockstep (see :mod:`repro.core.population`).
    #: ``1`` (default) is the paper's single-trajectory walk; ``N > 1``
    #: runs N independently-seeded walkers whose proposals are priced
    #: together through the population-batched compiled core
    #: (:mod:`repro.compiled.batch`) — a different (deterministic)
    #: search trajectory, keyed distinctly in campaign digests.
    population: int = 1
    #: Parallel-tempering rungs over the population (``1`` = all
    #: walkers share the base schedule).  Only meaningful with
    #: ``population > 1``; clamped to the population size.
    tempering: int = 1
    #: Record search diagnostics (convergence curve, per-operator
    #: effectiveness, temperature checkpoints) into ``SAStats.diag``.
    #: Pure observation: the trajectory is unchanged, so campaign
    #: content digests deliberately exclude this flag.
    diag: bool = False

    def objective(self, ev) -> float:
        """The ``E^beta * D^gamma`` objective of one group evaluation."""
        return (ev.energy.total ** self.beta) * (ev.delay ** self.gamma)

    def temperature(self, i: int) -> float:
        """Geometric cooling from ``t_start`` to ``t_end``."""
        if self.iterations <= 1:
            return self.t_end
        ratio = (self.t_end / self.t_start) ** (i / (self.iterations - 1))
        return self.t_start * ratio


@dataclass
class SAStats:
    """Telemetry of one annealing run."""

    iterations: int = 0
    proposed: int = 0
    accepted: int = 0
    improved: int = 0
    #: 1-based iteration at which the best solution was last improved;
    #: 0 means the initial mapping was never beaten.  Campaigns compare
    #: this between warm- and cold-started runs.
    best_iteration: int = 0
    operator_uses: dict[str, int] = field(default_factory=dict)
    initial_cost: float = 0.0
    final_cost: float = 0.0
    wall_time_s: float = 0.0
    #: Search diagnostics (:meth:`repro.obs.diag.SARunDiag.to_dict`);
    #: ``None`` unless the run was started with ``SASettings.diag``.
    diag: dict | None = None

    @property
    def acceptance_rate(self) -> float:
        return self.accepted / self.proposed if self.proposed else 0.0

    @property
    def iters_per_sec(self) -> float:
        """SA-loop throughput of the run (annealing loop only)."""
        if self.wall_time_s <= 0:
            return 0.0
        return self.iterations / self.wall_time_s

    @property
    def improvement(self) -> float:
        """Relative cost reduction achieved by the search."""
        if self.initial_cost <= 0:
            return 0.0
        return 1.0 - self.final_cost / self.initial_cost


class SAController:
    """Anneals the LMS of every layer group of one DNN."""

    def __init__(
        self,
        graph: DNNGraph,
        evaluator: Evaluator,
        lmss: list[LayerGroupMapping],
        batch: int,
        settings: SASettings | None = None,
    ):
        if not lmss:
            raise SearchError("no layer groups to anneal")
        self.settings = settings or SASettings()
        if self.settings.population < 1:
            raise SearchError("population must be >= 1")
        if self.settings.tempering < 1:
            raise SearchError("tempering must be >= 1")
        self.graph = graph
        self.evaluator = evaluator
        self.batch = batch
        self.rng = random.Random(self.settings.seed)
        self.current = list(lmss)
        self.best = list(lmss)
        # The SA loop revisits the same routes and layer shapes over and
        # over — warm the evaluator's route cache and the graph's
        # compiled tables before the first step (idempotent).
        evaluator.warm(graph)
        self._group_weights = self._space_weights()
        # Cumulative weights + a reusable index list keep the
        # per-iteration group draw from re-accumulating the weights.
        cum = []
        total = 0.0
        for w in self._group_weights:
            total += w
            cum.append(total)
        self._group_cum_weights = cum
        self._group_indices = list(range(len(self.current)))
        self._stored_at = self._stored_at_map(self.current)
        self.current_costs = [self._cost(lms) for lms in self.current]
        self.best_costs = list(self.current_costs)
        self.stats = SAStats(initial_cost=sum(self.current_costs))
        #: The PopulationWalk of the last run (telemetry).  The walk
        #: holds no reference back to the controller, so dropping the
        #: controller frees both without the cyclic GC.
        self._population_walk = None
        # Opt-in diagnostics recorder; ``None`` keeps the hot path at
        # one attribute check per iteration.
        self._diag = None
        if self.settings.diag:
            from repro.obs.diag import SARunDiag

            self._diag = SARunDiag(
                self.settings.iterations, self.settings.seed
            )

    # ------------------------------------------------------------------

    def _space_weights(self) -> list[float]:
        arch = self.evaluator.arch
        weights = []
        for lms in self.current:
            size = gemini_space_size(arch.n_cores, len(lms.group))
            weights.append(max(1.0, log10_size(size)))
        return weights

    def _stored_at_map(self, lmss) -> dict[str, int]:
        stored: dict[str, int] = {}
        for lms in lmss:
            for name in lms.group.layers:
                of = lms.scheme(name).fd.ofmap
                if of >= 0:
                    stored[name] = of
        return stored

    def _cost(self, lms: LayerGroupMapping) -> float:
        ev = self.evaluator.evaluate_group(
            self.graph, lms, self.batch, self._stored_at
        )
        return self.settings.objective(ev)

    # ------------------------------------------------------------------

    def run(self) -> list[LayerGroupMapping]:
        from repro.core.population import PopulationWalk
        from repro.obs.trace import trace
        from repro.perf import PERF

        s = self.settings
        walk = PopulationWalk(self)
        self._population_walk = walk
        diag = self._diag
        with trace("sa.run", iterations=s.iterations, seed=s.seed,
                   population=walk.n, tempering=walk.k,
                   groups=len(self.best)):
            t0 = time.perf_counter()
            for i in range(s.iterations):
                self.stats.iterations += 1
                walk.base_t = s.temperature(i)
                walk.step(i)
                if diag is not None and diag.want(i):
                    diag.sample(i, sum(self.best_costs),
                                walk.current_total(), walk.base_t)
            elapsed = time.perf_counter() - t0
            self.stats.wall_time_s += elapsed
        PERF.add_time("sa.run", elapsed)
        self.stats.final_cost = sum(self.best_costs)
        if s.iterations:
            PERF.add("sa.iterations", s.iterations)
        walk.report(PERF)
        if diag is not None:
            self.stats.diag = diag.to_dict(self.stats)
        return list(self.best)
