"""Population-batched evaluation core: bit-identity and SA semantics.

The batched core (``repro.compiled.batch``) stacks N candidate
mappings into (N, ...) arrays and evaluates them with shared scatter
kernels and one fold — but the contract is *float-exact bit-identity*
with the per-mapping compiled path: at N=1 outright, and element-wise
at any N.  These tests pin that contract over the whole model
registry, through annealed states, and under slot permutation; plus
the population/tempering SA semantics built on top and the int64
guards in the table builders.
"""

import random

import numpy as np
import pytest

from repro.arch import g_arch, s_arch
from repro.compiled.batch import PopulationGroupState, evaluate_population
from repro.compiled.graph import (
    MAX_STACKED_LANES,
    as_index_table,
    stacked_offsets,
)
from repro.core import SAController, SASettings
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.operators import op2_swap_within_layer
from repro.evalmodel import Evaluator
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType
from repro.workloads.models import MODEL_REGISTRY, build

from test_compiled_identity import assert_group_evals_equal, small_arch


def _setup(name, arch, batch):
    graph = build(name)
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    ev = Evaluator(arch, cache=True)
    return graph, lmss, ev, ev.compiled_for(graph)


def _stored_for(lms, stored):
    for lname in lms.group.layers:
        of = lms.scheme(lname).fd.ofmap
        if of >= 0:
            stored[lname] = of
    return stored


def _anneal_population(name, arch, batch, population, iterations=40,
                       tempering=1, seed=3):
    graph = build(name)
    groups = partition_graph(graph, arch, batch=batch)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    ev = Evaluator(arch, cache=True)
    ctrl = SAController(
        graph, ev, lmss, batch,
        SASettings(iterations=iterations, seed=seed,
                   population=population, tempering=tempering),
    )
    ctrl.run()
    return ctrl, ev.compiled_for(graph)


class TestBatchIdentity:
    """Batched vs per-mapping compiled path, float-exact."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_batch1_bit_identical_full_registry(self, name):
        graph, lmss, ev, ceval = _setup(name, s_arch(), 4)
        stored = {}
        for lms in lmss:
            batched = evaluate_population(ceval, [lms], 4, [stored])
            serial = ceval.evaluate_group(lms, 4, stored)
            assert_group_evals_equal(batched[0], serial, name)
            _stored_for(lms, stored)

    def test_annealed_population_elementwise_identical(self):
        """Every walker of an annealed population evaluates to exactly
        what the per-mapping path computes from its state."""
        ctrl, ceval = _anneal_population("GN", g_arch(), 8, population=8)
        walk = ctrl._population_walk
        for gi in range(len(ctrl.best)):
            states = [walk.lms[w][gi] for w in range(walk.n)]
            batched = evaluate_population(ceval, states, 8, walk.stored)
            for w, lms in enumerate(states):
                serial = ceval.evaluate_group(lms, 8, walk.stored[w])
                assert_group_evals_equal(batched[w], serial, f"g{gi} w{w}")

    def test_slot_permutation_invariance(self):
        """A walker's result does not depend on its batch slot."""
        ctrl, ceval = _anneal_population("GN", small_arch(), 4,
                                         population=6)
        walk = ctrl._population_walk
        states = [walk.lms[w][0] for w in range(walk.n)]
        base = evaluate_population(ceval, states, 4, walk.stored)
        perm = [3, 0, 5, 1, 4, 2]
        shuffled = evaluate_population(
            ceval,
            [states[p] for p in perm],
            4,
            [walk.stored[p] for p in perm],
        )
        for j, p in enumerate(perm):
            assert_group_evals_equal(shuffled[j], base[p], f"slot {j}")



class TestIdenticalWalkerStaging:
    """Walkers starting from one LMS object and one placement of the
    group's cross-group producers are staged once and share that state;
    every walker still ends up exactly where separate staging puts it."""

    @staticmethod
    def _tf_group():
        graph = build("TF")
        arch = g_arch()
        groups = partition_graph(graph, arch, batch=8)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        return graph, arch, max(lmss, key=lambda m: len(m.group))

    def test_move_of_one_walker_leaves_the_others(self):
        graph, arch, lms = self._tf_group()
        ev = Evaluator(arch)
        oracle = Evaluator(arch, cache=False)
        state = PopulationGroupState(
            ev.compiled_for(graph), [lms] * 4, 8, [{} for _ in range(4)]
        )
        first = state.sessions[0]
        assert all(s.input_blocks is first.input_blocks
                   for s in state.sessions)
        before = state.buf.copy()
        assert (before[:, 1:] == before[:, :1]).all()
        rng = random.Random(5)
        cand = None
        while cand is None:
            cand = op2_swap_within_layer(graph, lms, rng)
        bp = state.propose([(0, cand)], [{} for _ in range(4)])
        state.resolve(bp, [True])
        assert not (state.buf[:, 0] == before[:, 0]).all()
        assert (state.buf[:, 1:] == before[:, 1:]).all()
        evals = state.evaluate_current()
        assert_group_evals_equal(
            evals[0], oracle.evaluate_group(graph, cand, 8, {}), "moved"
        )
        start = oracle.evaluate_group(graph, lms, 8, {})
        for w in (1, 2, 3):
            assert state.sessions[w].schemes[0] is lms.scheme(
                lms.group.layers[0])
            assert_group_evals_equal(evals[w], start, f"walker {w}")
        # A rejected move of a sharing walker restores its own rows.
        bp = state.propose([(2, cand)], [{} for _ in range(4)])
        state.resolve(bp, [False])
        assert (state.buf[:, 1:] == before[:, 1:]).all()

    def test_mixed_classes_equal_separate_staging(self):
        graph = build("RN-50")
        arch = g_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        first, second = lmss[0], lmss[1]
        placed = _stored_for(first, {})
        moved = {name: 1 for name in placed}
        assert moved != placed
        rng = random.Random(9)
        other = None
        while other is None:
            other = op2_swap_within_layer(graph, second, rng)
        # Classes: (second, placed) x3 — one with an irrelevant extra
        # placement — (other, placed), (second, moved), (other, moved).
        walkers = [
            (second, placed), (second, dict(placed)), (other, placed),
            (second, moved), (other, dict(moved)),
            (second, {**placed, "not-in-this-graph": 2}),
        ]
        ceval = Evaluator(arch).compiled_for(graph)
        state = PopulationGroupState(
            ceval, [w[0] for w in walkers], 4, [w[1] for w in walkers]
        )
        sessions = state.sessions
        assert sessions[1].input_blocks is sessions[0].input_blocks
        assert sessions[5].input_blocks is sessions[0].input_blocks
        assert len({id(s.input_blocks) for s in sessions}) == 4
        evals = state.evaluate_current()
        for w, (lms, stored) in enumerate(walkers):
            alone = PopulationGroupState(
                Evaluator(arch).compiled_for(graph), [lms], 4, [stored]
            )
            assert (state.buf[:, w] == alone.buf[:, 0]).all(), w
            assert_group_evals_equal(
                evals[w], alone.evaluate_current()[0], f"walker {w}"
            )


class TestPopulationSA:
    def test_population_deterministic_for_fixed_seed(self):
        a, _ = _anneal_population("GN", small_arch(), 4, population=8,
                                  tempering=4)
        b, _ = _anneal_population("GN", small_arch(), 4, population=8,
                                  tempering=4)
        assert a.best_costs == b.best_costs
        assert a.stats.proposed == b.stats.proposed
        assert a.stats.accepted == b.stats.accepted

    def test_object_and_compiled_populations_agree(self):
        """The population walk is evaluator-agnostic: the object path
        anneals to bit-identical best costs."""
        graph = build("GN")
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        settings = SASettings(iterations=30, seed=7, population=6)
        runs = []
        for ev in (Evaluator(arch, cache=True),
                   Evaluator(arch, cache=False)):
            ctrl = SAController(graph, ev, list(lmss), 4, settings)
            ctrl.run()
            runs.append(ctrl)
        a, b = runs
        assert list(a.best_costs) == list(b.best_costs)
        # Not just the winners: every walker's tracked per-group costs
        # — the product of every propose/accept/resolve round — match
        # bit for bit between the batched and the object evaluation.
        wa, wb = a._population_walk, b._population_walk
        assert wa.costs == wb.costs
        assert wa.totals == wb.totals

    def test_tempering_attempts_swaps_deterministically(self):
        from repro.core.population import SWAP_PERIOD

        iters = 4 * SWAP_PERIOD
        a, _ = _anneal_population("GN", small_arch(), 4, population=8,
                                  tempering=4, iterations=iters)
        b, _ = _anneal_population("GN", small_arch(), 4, population=8,
                                  tempering=4, iterations=iters)
        wa, wb = a._population_walk, b._population_walk
        assert wa.swaps_attempted > 0
        assert (wa.swaps_attempted, wa.swaps_accepted) == \
            (wb.swaps_attempted, wb.swaps_accepted)
        assert sorted(wa.rung_of) == sorted(wb.rung_of)

    def test_population_one_uses_serial_walk(self):
        """N=1 is the paper's serial walk: one stream drives the group,
        operator and accept draws, and walker 0 is the controller's own
        state."""
        ctrl, _ = _anneal_population("GN", small_arch(), 4, population=1,
                                     iterations=10)
        walk = ctrl._population_walk
        assert walk.n == 1
        assert walk.rng is ctrl.rng
        assert walk.walker_rngs == [ctrl.rng]
        assert walk.lms[0] is ctrl.current
        assert walk.stored[0] is ctrl._stored_at


class TestDiagProposalTotals:
    """Satellite: per-operator diag tables count *all* scored
    proposals, so effectiveness stays comparable across batch sizes."""

    def _run(self, **sa_kwargs):
        graph = build("GN")
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        ctrl = SAController(
            graph, Evaluator(arch, cache=True), lmss, 4,
            SASettings(iterations=40, seed=5, diag=True, **sa_kwargs),
        )
        ctrl.run()
        return ctrl.stats

    @pytest.mark.parametrize("sa_kwargs", [
        {},
        {"population": 3},
        {"population": 6},
        {"population": 6, "tempering": 3},
    ])
    def test_diag_proposed_matches_stats(self, sa_kwargs):
        stats = self._run(**sa_kwargs)
        ops = stats.diag["operators"]
        assert sum(rec["proposed"] for rec in ops.values()) == \
            stats.proposed
        assert sum(rec["accepted"] for rec in ops.values()) == \
            stats.accepted


class TestGraphGuards:
    """Satellite: int64 promotion + overflow guards in the builders."""

    def test_stacked_offsets_are_int64(self):
        offs = stacked_offsets(7, 33)
        assert offs.dtype == np.int64
        assert offs[-1] == 6 * 33

    def test_stacked_offsets_reject_oversized_lane_space(self):
        with pytest.raises(ValueError, match="lanes"):
            stacked_offsets(1 << 21, MAX_STACKED_LANES)

    def test_as_index_table_promotes_narrow_dtypes(self):
        narrow = np.arange(5, dtype=np.int32)
        wide = as_index_table(narrow)
        assert wide.dtype == np.int64
        again = as_index_table(wide)
        assert again is wide

    def test_offset_product_exceeds_int32(self):
        # 2**20 slots x 2**12 links would wrap int32; the guard path
        # computes in python ints and emits int64.
        offs = stacked_offsets(1 << 20, 1 << 12)
        assert int(offs[-1]) == ((1 << 20) - 1) * (1 << 12)

    def test_oversized_synthetic_layer_rejected(self):
        g = DNNGraph("huge")
        g.add_layer(Layer(
            "big", LayerType.CONV, out_h=1 << 14, out_w=1 << 14,
            out_k=1 << 14, in_c=1 << 14, kernel_r=1, kernel_s=1,
        ))
        from repro.compiled.graph import CompiledGraph

        with pytest.raises(ValueError, match="dimension product"):
            CompiledGraph(g)
