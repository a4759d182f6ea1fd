"""Tests for the SA controller, graph partitioning and mapping engine."""

import pytest

from repro.arch import ArchConfig, g_arch
from repro.core import (
    MappingEngine,
    MappingEngineSettings,
    SAController,
    SASettings,
    initial_lms,
    partition_graph,
    validate_lms,
)
from repro.core.graphpart import estimate_group_cost
from repro.errors import SearchError
from repro.evalmodel import Evaluator
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType
from repro.workloads.models import build


def chain_graph(n=5):
    g = DNNGraph("chain")
    prev = None
    for i in range(n):
        g.add_layer(
            Layer(f"l{i}", LayerType.CONV, out_h=16, out_w=16, out_k=64,
                  in_c=3 if prev is None else 64, kernel_r=3, kernel_s=3,
                  pad_h=1, pad_w=1),
            inputs=[prev] if prev else None,
        )
        prev = f"l{i}"
    return g


def small_arch():
    return ArchConfig(
        cores_x=4, cores_y=4, xcut=2, ycut=1, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
        macs_per_core=1024,
    )


class TestGraphPartition:
    def test_groups_cover_graph_in_topo_order(self):
        g = build("RN-50")
        arch = g_arch()
        groups = partition_graph(g, arch, batch=8)
        flattened = [n for grp in groups for n in grp.layers]
        assert flattened == g.topological_order()

    def test_group_size_bounded(self):
        g = build("RN-50")
        arch = g_arch()
        groups = partition_graph(g, arch, batch=8, max_group_layers=6)
        assert max(len(grp) for grp in groups) <= 6

    def test_fusion_happens(self):
        """The DP must actually fuse layers (LP mapping's raison d'etre)."""
        g = build("TF")
        groups = partition_graph(g, g_arch(), batch=64)
        assert max(len(grp) for grp in groups) >= 3
        assert len(groups) < len(g)

    def test_batch_unit_divides_reasonably(self):
        g = chain_graph()
        groups = partition_graph(g, small_arch(), batch=16)
        for grp in groups:
            assert 1 <= grp.batch_unit <= 16

    def test_estimator_rewards_fusion_energy(self):
        g = chain_graph(4)
        arch = small_arch()
        names = g.topological_order()
        fused = estimate_group_cost(g, names, arch, batch=16)
        singles = sum(
            estimate_group_cost(g, [n], arch, batch=16).energy for n in names
        )
        assert fused.energy < singles


class TestSAController:
    def make(self, iterations=60, seed=0):
        g = chain_graph(4)
        arch = small_arch()
        evaluator = Evaluator(arch)
        groups = partition_graph(g, arch, batch=8)
        lmss = [initial_lms(g, grp, arch) for grp in groups]
        settings = SASettings(iterations=iterations, seed=seed)
        return g, arch, SAController(g, evaluator, lmss, 8, settings)

    def test_never_worse_than_initial(self):
        g, arch, sa = self.make()
        initial = sum(sa.best_costs)
        sa.run()
        assert sum(sa.best_costs) <= initial + 1e-12

    def test_results_remain_valid(self):
        g, arch, sa = self.make(iterations=120)
        best = sa.run()
        for lms in best:
            validate_lms(g, lms, arch.n_cores, arch.n_dram)

    def test_stats_populated(self):
        _, _, sa = self.make(iterations=80)
        sa.run()
        assert sa.stats.iterations == 80
        assert sa.stats.proposed > 0
        assert 0 <= sa.stats.acceptance_rate <= 1
        assert sa.stats.operator_uses

    def test_deterministic_under_seed(self):
        _, _, sa1 = self.make(iterations=50, seed=42)
        _, _, sa2 = self.make(iterations=50, seed=42)
        r1, r2 = sa1.run(), sa2.run()
        assert sum(sa1.best_costs) == pytest.approx(sum(sa2.best_costs))

    def test_temperature_cools(self):
        _, _, sa = self.make()
        assert sa.settings.temperature(0) > sa.settings.temperature(59)

    @pytest.mark.parametrize("bad", [
        {"population": 0}, {"population": -3}, {"tempering": 0},
    ])
    def test_rejects_empty_population_or_rungs(self, bad):
        g = chain_graph()
        arch = small_arch()
        lmss = [initial_lms(g, grp, arch)
                for grp in partition_graph(g, arch, batch=8)]
        with pytest.raises(SearchError, match="must be >= 1"):
            SAController(g, Evaluator(arch), lmss, 8,
                         SASettings(iterations=5, **bad))


class TestNoReferenceCycles:
    """Evaluators, their compiled cores and controllers die by refcount
    — with the cyclic GC off — so peak RSS does not depend on when a
    collection happens to run."""

    @pytest.mark.parametrize("population", [1, 3])
    def test_mapped_engine_freed_without_gc(self, population):
        import gc
        import weakref

        g = chain_graph(4)
        engine = MappingEngine(
            small_arch(),
            settings=MappingEngineSettings(
                sa=SASettings(iterations=30, seed=1, population=population),
            ),
        )
        gc.collect()
        gc.disable()
        try:
            engine.map(g, batch=4)
            evaluator = weakref.ref(engine.evaluator)
            compiled = weakref.ref(engine.evaluator.compiled_for(g))
            del engine
            assert compiled() is None
            assert evaluator() is None
        finally:
            gc.enable()

    def test_controller_and_walk_freed_without_gc(self):
        import gc
        import weakref

        g = chain_graph(4)
        arch = small_arch()
        evaluator = Evaluator(arch)
        lmss = [initial_lms(g, grp, arch)
                for grp in partition_graph(g, arch, batch=4)]
        gc.collect()
        gc.disable()
        try:
            ctrl = SAController(g, evaluator, lmss, 4,
                                SASettings(iterations=20, population=2))
            ctrl.run()
            walk = weakref.ref(ctrl._population_walk)
            ctrl_ref = weakref.ref(ctrl)
            del ctrl
            assert ctrl_ref() is None
            assert walk() is None
        finally:
            gc.enable()


class TestMappingEngine:
    def test_sa_improves_over_baseline(self):
        g = build("TF")
        arch = g_arch()
        baseline = MappingEngine(
            arch, settings=MappingEngineSettings(sa=SASettings(iterations=0))
        ).map(g, batch=16)
        optimized = MappingEngine(
            arch,
            settings=MappingEngineSettings(
                sa=SASettings(iterations=200, seed=7)
            ),
        ).map(g, batch=16)
        assert optimized.edp < baseline.edp

    def test_baseline_has_no_sa_stats(self):
        g = chain_graph(3)
        result = MappingEngine(
            small_arch(),
            settings=MappingEngineSettings(sa=SASettings(iterations=0)),
        ).map(g, batch=4)
        assert result.sa_stats is None
        assert result.delay > 0

    def test_result_schemes_are_valid(self):
        g = chain_graph(4)
        arch = small_arch()
        result = MappingEngine(
            arch,
            settings=MappingEngineSettings(sa=SASettings(iterations=50)),
        ).map(g, batch=4)
        for lms in result.lmss:
            validate_lms(g, lms, arch.n_cores, arch.n_dram)

    def test_batch_one_latency_mode(self):
        g = chain_graph(3)
        result = MappingEngine(
            small_arch(),
            settings=MappingEngineSettings(sa=SASettings(iterations=0)),
        ).map(g, batch=1)
        assert result.delay > 0
        for grp in result.groups:
            assert grp.batch_unit == 1
