"""Bit-identity of the array-native evaluation core.

The compiled path (``repro.compiled``) must reproduce the object path's
results *exactly* — same floats, bit for bit — across the whole model
registry, for delta evaluation under every SA operator, and through
whole annealing trajectories.  These tests are the contract that lets
the Evaluator default to the compiled path.
"""

import random

import pytest

from repro.arch import ArchConfig, g_arch, s_arch
from repro.compiled.batch import PopulationGroupState
from repro.core import SAController, SASettings
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.operators import OPERATORS, op5_change_flow
from repro.evalmodel import Evaluator
from repro.units import GB, MB
from repro.workloads.models import MODEL_REGISTRY, build


def assert_group_evals_equal(a, b, context=""):
    assert a.delay == b.delay, context
    assert a.energy.intra == b.energy.intra, context
    assert a.energy.noc == b.energy.noc, context
    assert a.energy.d2d == b.energy.d2d, context
    assert a.energy.dram == b.energy.dram, context
    assert a.stage_time == b.stage_time, context
    assert a.rounds == b.rounds, context
    assert a.compute_time == b.compute_time, context
    assert a.network_time == b.network_time, context
    assert a.dram_time == b.dram_time, context
    assert tuple(a.dram_round_bytes) == tuple(b.dram_round_bytes), context
    assert a.fits == b.fits, context


def small_arch():
    return ArchConfig(
        cores_x=4, cores_y=4, xcut=2, ycut=1, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
        macs_per_core=1024,
    )


class TestModelZooIdentity:
    """Compiled vs object path over every registered model."""

    @pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
    def test_initial_mapping_bit_identical(self, name):
        graph = build(name)
        arch = s_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        compiled_ev = Evaluator(arch, cache=True)
        object_ev = Evaluator(arch, cache=False)
        assert compiled_ev.compiled_for(graph) is not None
        assert object_ev.compiled_for(graph) is None
        stored = {}
        for lms in lmss:
            a = compiled_ev.evaluate_group(graph, lms, 4, stored)
            b = object_ev.evaluate_group(graph, lms, 4, stored)
            assert_group_evals_equal(a, b, f"{name}:{lms.group.layers[0]}")
            for lname in lms.group.layers:
                of = lms.scheme(lname).fd.ofmap
                if of >= 0:
                    stored[lname] = of
        # Whole-mapping chaining agrees too.
        ma = compiled_ev.evaluate_mapping(graph, lmss, 4)
        mb = object_ev.evaluate_mapping(graph, lmss, 4)
        assert ma.delay == mb.delay, name
        assert ma.energy.total == mb.energy.total, name

    def test_annealed_states_bit_identical(self):
        """After a real SA shuffle the two paths still agree exactly."""
        graph = build("GN")
        arch = g_arch()
        groups = partition_graph(graph, arch, batch=8)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        ctl = SAController(
            graph, Evaluator(arch), lmss, 8,
            SASettings(iterations=80, seed=11),
        )
        annealed = ctl.run()
        compiled_ev = Evaluator(arch, cache=True)
        object_ev = Evaluator(arch, cache=False)
        stored = {}
        for lms in annealed:
            a = compiled_ev.evaluate_group(graph, lms, 8, stored)
            b = object_ev.evaluate_group(graph, lms, 8, stored)
            assert_group_evals_equal(a, b)
            for lname in lms.group.layers:
                of = lms.scheme(lname).fd.ofmap
                if of >= 0:
                    stored[lname] = of


class TestDeltaEvaluation:
    """Delta evaluation of one walker's moves vs the object oracle."""

    @pytest.fixture(scope="class")
    def setup(self):
        graph = build("TF")
        arch = g_arch()
        groups = partition_graph(graph, arch, batch=8)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        lms = max(lmss, key=lambda m: len(m.group))
        return graph, arch, lms

    @pytest.mark.parametrize("op_name,op", OPERATORS, ids=[n for n, _ in OPERATORS])
    def test_operator_delta_matches_full(self, setup, op_name, op):
        graph, arch, lms = setup
        ev = Evaluator(arch)
        reference = Evaluator(arch, cache=False)
        state = PopulationGroupState(ev.compiled_for(graph), [lms], 8, [{}])
        rng = random.Random(42)
        current = lms
        checked = 0
        for _ in range(40):
            if op is op5_change_flow:
                candidate = op(graph, current, rng, n_dram=arch.n_dram)
            else:
                candidate = op(graph, current, rng)
            if candidate is None:
                continue
            bp = state.propose([(0, candidate)], [{}])
            full = reference.evaluate_group(graph, candidate, 8, {})
            assert_group_evals_equal(bp.evals[0], full, op_name)
            checked += 1
            # Commit every other move so deltas also run against
            # evolved (non-initial) states; the rest roll back.
            accept = checked % 2 == 0
            state.resolve(bp, [accept])
            if accept:
                current = candidate
            assert_group_evals_equal(
                state.evaluate_current()[0],
                reference.evaluate_group(graph, current, 8, {}),
                f"{op_name} after resolve",
            )
            if checked >= 12:
                break
        assert checked >= 3, f"{op_name} never produced a candidate"

    def test_stored_at_change_invalidates_placement(self):
        """A cross-group placement change re-evaluates the ext slice."""
        graph = build("RN-50")
        arch = g_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        assert len(lmss) >= 2, "test needs a multi-group partition"
        ev = Evaluator(arch)
        reference = Evaluator(arch, cache=False)
        # The second group reads the first group's outputs.
        first, second = lmss[0], lmss[1]
        stored = {}
        for lname in first.group.layers:
            of = first.scheme(lname).fd.ofmap
            if of >= 0:
                stored[lname] = of
        state = PopulationGroupState(
            ev.compiled_for(graph), [second], 4, [stored]
        )
        base = state.propose([(0, second)], [stored])
        assert base.staged[0].rows == []
        assert_group_evals_equal(
            base.evals[0], reference.evaluate_group(graph, second, 4, stored)
        )
        state.resolve(base, [False])
        # Move every stored producer to explicit DRAM 1 and re-propose
        # the *same* mapping: only the placements changed.
        moved = {name: 1 for name in stored}
        shifted = state.propose([(0, second)], [moved])
        assert shifted.staged[0].rows
        assert_group_evals_equal(
            shifted.evals[0],
            reference.evaluate_group(graph, second, 4, moved),
        )
        assert shifted.evals[0].delay != base.evals[0].delay or \
            shifted.evals[0].energy.total != base.evals[0].energy.total


class TestWarmGuard:
    """Evaluator.warm runs once per evaluator / (evaluator, graph)."""

    def test_route_warming_runs_once(self):
        from repro.perf import PERF

        ev = Evaluator(small_arch())
        assert not ev._routes_warmed
        ev.warm()
        assert ev._routes_warmed
        before = PERF.get("evaluator.warm.skipped")
        ev.warm()
        ev.warm()
        assert PERF.get("evaluator.warm.skipped") == before + 2

    def test_graph_compiled_once_per_evaluator_graph(self):
        graph = build("GN")
        ev = Evaluator(small_arch())
        ev.warm(graph)
        ce = ev.compiled_for(graph)
        ev.warm(graph)  # the restart / warm-start second call
        assert ev.compiled_for(graph) is ce

    def test_compiled_tables_shared_across_evaluators(self):
        """compile_graph memoizes per graph, not per evaluator."""
        from repro.compiled import compile_graph

        graph = build("GN")
        a = Evaluator(small_arch())
        b = Evaluator(small_arch())
        a.warm(graph)
        b.warm(graph)
        assert a.compiled_for(graph) is not b.compiled_for(graph)
        assert a.compiled_for(graph).cgraph is compile_graph(graph)

    def test_sa_controller_warms_through_restarts(self):
        """MappingEngine restarts reuse the same evaluator warm state."""
        from repro.core.engine import MappingEngine, MappingEngineSettings

        graph = build("GN")
        engine = MappingEngine(
            small_arch(),
            settings=MappingEngineSettings(
                sa=SASettings(iterations=5, seed=0), restarts=2,
            ),
        )
        result = engine.map(graph, 2)
        assert result.sa_stats is not None
        assert engine.evaluator._routes_warmed
