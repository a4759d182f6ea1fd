"""Tests for derived metrics and the paper's Discussion-level claims."""


import pytest

from repro.arch import ArchConfig, g_arch
from repro.core import (
    MappingEngine,
    MappingEngineSettings,
    SAController,
    SASettings,
)
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import (
    Evaluator,
    average_concurrent_layers,
    d2d_energy_share,
    dram_bytes_per_inference,
    pipeline_fill_drain_loss,
    stage_bound_histogram,
)
from repro.units import GB, MB
from repro.workloads.models import build


@pytest.fixture(scope="module")
def tf_result():
    graph = build("TF")
    engine = MappingEngine(
        g_arch(), settings=MappingEngineSettings(sa=SASettings(iterations=0))
    )
    return graph, engine.map(graph, batch=16)


class TestMetrics:
    def test_average_concurrent_layers_in_range(self, tf_result):
        graph, result = tf_result
        avg = average_concurrent_layers(result)
        assert 1.0 <= avg <= max(len(g) for g in result.groups)

    def test_dram_bytes_positive_and_bounded(self, tf_result):
        graph, result = tf_result
        dram = dram_bytes_per_inference(result)
        assert dram > 0
        # DRAM traffic cannot exceed a silly multiple of all tensors.
        upper = 16 * (graph.total_ofmap_bytes(16) + graph.total_weight_bytes())
        assert dram < upper

    def test_d2d_share_between_0_and_1(self, tf_result):
        _, result = tf_result
        assert 0.0 <= d2d_energy_share(result) <= 1.0

    def test_histogram_counts_groups(self, tf_result):
        _, result = tf_result
        hist = stage_bound_histogram(result)
        assert sum(hist.values()) == len(result.groups)

    def test_fill_drain_loss_fraction(self, tf_result):
        _, result = tf_result
        loss = pipeline_fill_drain_loss(result)
        assert 0.0 <= loss < 1.0

    def test_monolithic_has_zero_d2d_share(self):
        graph = build("TF")
        arch = ArchConfig(
            cores_x=6, cores_y=6, xcut=1, ycut=1, dram_bw=144 * GB,
            noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=2 * MB,
            macs_per_core=1024,
        )
        result = MappingEngine(
            arch, settings=MappingEngineSettings(sa=SASettings(iterations=0))
        ).map(graph, batch=4)
        assert d2d_energy_share(result) == 0.0


class TestD2DMinimizationClaim:
    """Sec V-B1: 'the entire search process inherently optimizes D2D
    communication' — accepted schemes carry less D2D traffic."""

    def test_sa_reduces_d2d_volume(self):
        graph = build("TF")
        arch = g_arch()
        evaluator = Evaluator(arch)
        groups = partition_graph(graph, arch, batch=32)
        group = max(groups, key=len)
        initial = initial_lms(graph, group, arch)
        sa = SAController(
            graph, evaluator, [initial], batch=32,
            settings=SASettings(iterations=400, seed=9),
        )
        final = sa.run()[0]

        def d2d_volume(lms):
            traffic = evaluator.analyze_group(graph, lms)[2]
            return traffic.traffic.d2d_volume()

        assert d2d_volume(final) < d2d_volume(initial)


class TestCoreGranularityInsight:
    """Sec VII-A2: more cores -> longer pipelines -> less DRAM traffic
    (with diminishing returns)."""

    def test_more_cores_cut_dram_traffic(self):
        graph = build("TF")
        few = ArchConfig(
            cores_x=2, cores_y=2, xcut=1, ycut=1, dram_bw=128 * GB,
            noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=2 * MB,
            macs_per_core=8192,
        )  # 4 cores: pipelines capped at 4 layers
        many = ArchConfig(
            cores_x=4, cores_y=4, xcut=1, ycut=1, dram_bw=128 * GB,
            noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=2 * MB,
            macs_per_core=2048,
        )  # 16 cores, same TOPS
        results = {}
        for arch in (few, many):
            result = MappingEngine(
                arch,
                settings=MappingEngineSettings(sa=SASettings(iterations=0)),
            ).map(graph, batch=16)
            results[arch.n_cores] = (
                dram_bytes_per_inference(result),
                average_concurrent_layers(result),
            )
        assert results[16][0] < results[4][0]     # less DRAM traffic
        assert results[16][1] > results[4][1]     # deeper pipelines
