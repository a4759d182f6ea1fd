"""The annealing walk: N Metropolis walkers advanced in lockstep.

Every :class:`~repro.core.sa.SAController` run drives one
:class:`PopulationWalk`.  Each step draws **one** layer group for the
whole population (so every walker's candidate lands in the same
:class:`~repro.compiled.batch.PopulationGroupState` and the entire
step prices as one batched fold + finalize), then one operator move
per walker, a per-walker accept test, and a single batched resolve.

``SASettings.population = 1`` (the default) is the paper's serial
walk: the group, operator and accept draws all come from the
controller's own ``random.Random(seed)`` stream, in the order the
single-trajectory loop has always drawn them.  With ``N > 1`` walker
w draws from its own stream and the group draws from a dedicated one,
so the population is N *distinct* trajectories — deterministic for a
fixed seed.

``SASettings.tempering = K`` layers parallel tempering on top: walkers
are pinned to K temperature rungs (rung r anneals at ``T(i) *
(t_start/t_end)**(r/K)``, so rung 0 is the base schedule and higher
rungs run hotter), and every :data:`SWAP_PERIOD` steps adjacent rungs
exchange members under the standard replica-exchange test on their
current total costs.  The swap schedule — alternating rung parity,
member j of rung r paired with member j of rung r+1 — and the swap
rng are deterministic functions of the seed.

Best-so-far tracking stays *per group across the population* (any
walker beating ``best_costs[gi]`` updates the controller's best), so
``SAController.run`` returns the same shape of answer regardless of
population size.
"""

from __future__ import annotations

import math
import random
import time

from repro.core.operators import OPERATORS, op5_change_flow
from repro.errors import SearchError

#: Steps between replica-exchange attempts when ``tempering > 1``.
SWAP_PERIOD = 16


def _rel_delta(old_cost: float, new_cost: float) -> float:
    """Relative cost delta of a move (comparable across groups)."""
    if old_cost > 0:
        return (new_cost - old_cost) / old_cost
    return new_cost - old_cost


class PopulationWalk:
    """The mutable state of one annealing run over a controller.

    The walk shares the controller's state objects (settings, stats,
    best-so-far lists, walker 0's current mapping) but keeps no
    reference to the controller itself.
    """

    def __init__(self, ctrl):
        s = ctrl.settings
        self.settings = s
        self.n = s.population
        self.k = max(1, min(s.tempering, self.n))
        self.graph = ctrl.graph
        self.evaluator = ctrl.evaluator
        self.batch = ctrl.batch
        self.stats = ctrl.stats
        self.diag = ctrl._diag
        self.best = ctrl.best
        self.best_costs = ctrl.best_costs
        self.group_indices = ctrl._group_indices
        self.group_cum_weights = ctrl._group_cum_weights
        if self.n == 1:
            self.rng = ctrl.rng
            self.walker_rngs = [ctrl.rng]
        else:
            # Group draws and swap tests come from a dedicated stream
            # so walker streams stay pure functions of (seed, index).
            self.rng = random.Random((s.seed << 1) ^ 0x9E3779B9)
            self.walker_rngs = [
                random.Random(s.seed * 1_000_003 + w + 1)
                for w in range(self.n)
            ]
        # Every walker starts at the controller's initial state; walker
        # 0 *is* the controller's current state.
        copies = range(self.n - 1)
        self.lms = [ctrl.current] + [list(ctrl.current) for _ in copies]
        self.costs = [ctrl.current_costs] + [
            list(ctrl.current_costs) for _ in copies
        ]
        self.stored = [ctrl._stored_at] + [
            dict(ctrl._stored_at) for _ in copies
        ]
        total0 = sum(ctrl.current_costs)
        self.totals = [total0] * self.n
        # Temperature multipliers per rung; rung 0 is the base schedule.
        ratio = s.t_start / s.t_end if s.t_end > 0 else 1.0
        self.mult = [ratio ** (r / self.k) for r in range(self.k)]
        self.rung_of = [w % self.k for w in range(self.n)]
        self.rungs = [
            [w for w in range(self.n) if w % self.k == r]
            for r in range(self.k)
        ]
        self.swaps_attempted = 0
        self.swaps_accepted = 0
        self._swap_round = 0
        self.base_t = s.t_start
        enabled = s.operators
        self.pool = (
            OPERATORS if enabled is None
            else tuple(o for o in OPERATORS if o[0] in enabled)
        )
        if not self.pool:
            raise SearchError("no SA operators enabled")
        compiled_for = getattr(self.evaluator, "compiled_for", None)
        self.ceval = (
            compiled_for(self.graph) if compiled_for is not None else None
        )
        #: Lazily-built batched group states (compiled path only), one
        #: per layer group, created the first time the group is drawn.
        self.states = [None] * len(ctrl.current)
        self.candidates_scored = 0
        self.eval_s = 0.0

    # ------------------------------------------------------------------

    def _state(self, gi: int):
        st = self.states[gi]
        if st is None:
            from repro.compiled.batch import PopulationGroupState

            st = PopulationGroupState(
                self.ceval,
                [self.lms[w][gi] for w in range(self.n)],
                self.batch,
                self.stored,
            )
            self.states[gi] = st
        return st

    def _draw(self, w: int, lms):
        """One operator draw for walker ``w`` on the walker's rng."""
        rng = self.walker_rngs[w]
        name, op = self.pool[rng.randrange(len(self.pool))]
        uses = self.stats.operator_uses
        uses[name] = uses.get(name, 0) + 1
        if self.diag is not None:
            self.diag.draw(name)
        if op is op5_change_flow:
            return name, op(self.graph, lms, rng,
                            n_dram=self.evaluator.arch.n_dram)
        return name, op(self.graph, lms, rng)

    def _update_stored(self, w: int, lms) -> None:
        stored = self.stored[w]
        for name in lms.group.layers:
            of = lms.scheme(name).fd.ofmap
            if of >= 0:
                stored[name] = of
            else:
                stored.pop(name, None)

    def current_total(self) -> float:
        """The current cost the convergence curve samples: the one
        walker's group-cost sum at N=1, else the best walker's running
        total."""
        if self.n == 1:
            return sum(self.costs[0])
        return min(self.totals)

    # ------------------------------------------------------------------

    def step(self, iteration: int) -> int:
        """One lockstep iteration at temperature ``base_t``; returns the
        accepted count."""
        stats = self.stats
        gi = self.rng.choices(
            self.group_indices, cum_weights=self.group_cum_weights
        )[0]
        cands = []
        for w in range(self.n):
            name, cand = self._draw(w, self.lms[w][gi])
            if cand is not None:
                cands.append((w, name, cand))
        accepted_total = 0
        if cands:
            stats.proposed += len(cands)
            self.candidates_scored += len(cands)
            t0 = time.perf_counter()
            if self.ceval is not None:
                st = self._state(gi)
                bp = st.propose(
                    [(w, cand) for w, _, cand in cands], self.stored
                )
                evals = bp.evals
            else:
                bp = st = None
                evals = [
                    self.evaluator.evaluate_group(
                        self.graph, cand, self.batch, self.stored[w]
                    )
                    for w, _, cand in cands
                ]
            self.eval_s += time.perf_counter() - t0
            objective = self.settings.objective
            best_costs = self.best_costs
            diag = self.diag
            flags = []
            for (w, name, cand), ev in zip(cands, evals):
                new_cost = objective(ev)
                old_cost = self.costs[w][gi]
                accept = new_cost <= old_cost
                if not accept and old_cost > 0:
                    rel = (new_cost - old_cost) / old_cost
                    t = self.base_t * self.mult[self.rung_of[w]]
                    accept = (
                        self.walker_rngs[w].random()
                        < math.exp(-rel / max(t, 1e-9))
                    )
                flags.append(accept)
                improved = False
                if accept:
                    accepted_total += 1
                    stats.accepted += 1
                    self.lms[w][gi] = cand
                    self.totals[w] += new_cost - old_cost
                    self.costs[w][gi] = new_cost
                    self._update_stored(w, cand)
                    if new_cost < best_costs[gi]:
                        self.best[gi] = cand
                        best_costs[gi] = new_cost
                        stats.improved += 1
                        stats.best_iteration = iteration + 1
                        improved = True
                if diag is not None:
                    diag.proposal(
                        name, _rel_delta(old_cost, new_cost),
                        accept, improved,
                    )
            if bp is not None:
                st.resolve(bp, flags)
        if self.k > 1 and (iteration + 1) % SWAP_PERIOD == 0:
            self._swap()
        return accepted_total

    def _swap(self) -> None:
        """One replica-exchange sweep over adjacent rung pairs."""
        # Alternate even/odd rung pairings so every adjacent pair of
        # rungs is visited on alternating sweeps.
        parity = self._swap_round % 2
        for r in range(parity, self.k - 1, 2):
            cold, hot = self.rungs[r], self.rungs[r + 1]
            for j in range(min(len(cold), len(hot))):
                wc, wh = cold[j], hot[j]
                self.swaps_attempted += 1
                c_cold, c_hot = self.totals[wc], self.totals[wh]
                if c_hot <= c_cold:
                    ok = True
                elif c_cold > 0:
                    # Exchanging states between inverse temperatures
                    # 1/Ta (cold) and 1/Tb (hot) with relative cost gap.
                    rel = (c_hot - c_cold) / c_cold
                    ta = max(self.base_t * self.mult[r], 1e-9)
                    tb = max(self.base_t * self.mult[r + 1], 1e-9)
                    ok = self.rng.random() < math.exp(
                        -rel * (1.0 / ta - 1.0 / tb)
                    )
                else:
                    ok = False
                if ok:
                    self.swaps_accepted += 1
                    cold[j], hot[j] = wh, wc
                    self.rung_of[wh] = r
                    self.rung_of[wc] = r + 1
        self._swap_round += 1

    def report(self, perf) -> None:
        """Fold the run's evaluation tallies into ``perf`` once."""
        if self.candidates_scored:
            perf.add_time("sa.delta_eval", self.eval_s,
                          self.candidates_scored)
            if self.ceval is not None:
                perf.add("sa.session.proposed", self.candidates_scored)
                perf.add("sa.session.committed", self.stats.accepted)
        if self.n > 1:
            perf.add("sa.population.steps", self.stats.iterations)
            perf.add("sa.population.candidates", self.candidates_scored)
        if self.swaps_attempted:
            perf.add("sa.population.swap_attempts", self.swaps_attempted)
            perf.add("sa.population.swaps", self.swaps_accepted)
