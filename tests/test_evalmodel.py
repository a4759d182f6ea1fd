"""Unit and integration tests for the Evaluator (Sec V-B2)."""

import pytest

from repro.arch import ArchConfig, g_arch
from repro.core.encoding import (
    IMPLICIT,
    FlowOfData,
    LayerGroup,
    LayerGroupMapping,
    MappingScheme,
    Partition,
)
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator, pipeline_utilization
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType
from repro.workloads.models import build


def small_arch(**kw):
    defaults = dict(
        cores_x=4, cores_y=4, xcut=2, ycut=1, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB, macs_per_core=1024,
    )
    defaults.update(kw)
    return ArchConfig(**defaults)


def two_layer_graph():
    g = DNNGraph("g")
    g.add_layer(Layer("a", LayerType.CONV, out_h=16, out_w=16, out_k=32,
                      in_c=3, kernel_r=3, kernel_s=3, pad_h=1, pad_w=1))
    g.add_layer(Layer("b", LayerType.CONV, out_h=16, out_w=16, out_k=32,
                      in_c=32, kernel_r=3, kernel_s=3, pad_h=1, pad_w=1),
                inputs=["a"])
    return g


def manual_lms(g, cg_a, cg_b, part_a, part_b, unit=1):
    group = LayerGroup(("a", "b"), batch_unit=unit)
    return LayerGroupMapping(group, {
        "a": MappingScheme(part_a, cg_a, FlowOfData(0, 0, IMPLICIT)),
        "b": MappingScheme(part_b, cg_b, FlowOfData(IMPLICIT, 0, 0)),
    })


class TestGroupEvaluation:
    def test_positive_results(self):
        g = two_layer_graph()
        arch = small_arch()
        lms = manual_lms(
            g, (0, 1), (2, 3), Partition(1, 1, 1, 2), Partition(2, 1, 1, 1)
        )
        ev = Evaluator(arch).evaluate_group(g, lms, batch=4)
        assert ev.delay > 0
        assert ev.energy.total > 0
        assert ev.energy.intra > 0
        assert ev.energy.dram > 0
        assert ev.rounds == 4

    def test_d2d_energy_appears_when_crossing_chiplets(self):
        g = two_layer_graph()
        arch = small_arch()
        # Producer on chiplet 0 (cores 0,1), consumer on chiplet 1
        # (cores 2,3 are x=2,3): inter-layer traffic must cross the cut.
        lms = manual_lms(
            g, (0, 1), (2, 3), Partition(1, 1, 1, 2), Partition(2, 1, 1, 1)
        )
        ev = Evaluator(arch).evaluate_group(g, lms, batch=1)
        assert ev.energy.d2d > 0

    def test_colocated_pipeline_avoids_network(self):
        """Same-core producer/consumer parts keep data in the GLB."""
        g = two_layer_graph()
        arch = small_arch()
        near = manual_lms(
            g, (0,), (1,), Partition(1, 1, 1, 1), Partition(1, 1, 1, 1)
        )
        far = manual_lms(
            g, (0,), (15,), Partition(1, 1, 1, 1), Partition(1, 1, 1, 1)
        )
        ev_near = Evaluator(arch).evaluate_group(g, near, batch=1)
        ev_far = Evaluator(arch).evaluate_group(g, far, batch=1)
        assert ev_far.energy.network > ev_near.energy.network

    def test_delay_scales_with_batch(self):
        g = two_layer_graph()
        arch = small_arch()
        lms = manual_lms(
            g, (0, 1), (2, 3), Partition(1, 1, 1, 2), Partition(2, 1, 1, 1)
        )
        ev1 = Evaluator(arch).evaluate_group(g, lms, batch=1)
        ev8 = Evaluator(arch).evaluate_group(g, lms, batch=8)
        assert ev8.delay > 4 * ev1.delay

    def test_analyze_group_exposes_map(self):
        g = two_layer_graph()
        arch = small_arch()
        lms = manual_lms(
            g, (0,), (15,), Partition(1, 1, 1, 1), Partition(1, 1, 1, 1)
        )
        traffic = Evaluator(arch).analyze_group(g, lms)[2].traffic
        assert traffic.total_byte_hops() > 0


class TestTrafficConservation:
    def test_interlayer_bytes_match_requirement(self):
        """Bytes injected for the a->b dependency equal b's halo-aware
        ifmap requirement (single-part producer and consumer)."""
        g = two_layer_graph()
        arch = small_arch()
        lms = manual_lms(
            g, (0,), (15,), Partition(1, 1, 1, 1), Partition(1, 1, 1, 1)
        )
        evaluator = Evaluator(arch)
        _, intra, traffic = evaluator.analyze_group(g, lms)
        hops = len(evaluator.topo.route(
            evaluator.topo.core_node(0), evaluator.topo.core_node(15)
        ))
        layer_b = g.layer("b")
        need = layer_b.ifmap_bytes(1) * intra["b"][0].if_fetches
        # Every byte traverses every hop of the XY route once.
        inter_hop_bytes = traffic.traffic.total_byte_hops() \
            - traffic.traffic.io_volume() * 1  # DRAM flows measured apart
        assert traffic.traffic.volumes.max() >= need

    def test_dram_reads_balance_interleaving(self):
        g = two_layer_graph()
        arch = small_arch()
        lms = manual_lms(
            g, (0, 1), (2, 3), Partition(1, 1, 1, 2), Partition(2, 1, 1, 1)
        )
        traffic = Evaluator(arch).analyze_group(g, lms)[2]
        reads = traffic.dram_read + traffic.dram_weight_once
        assert reads.sum() > 0
        # Interleaved flows spread within 2x across DRAM dies.
        assert reads.max() <= 2 * reads.min() + 1e-9

    def test_explicit_dram_concentrates_access(self):
        g = two_layer_graph()
        arch = small_arch()
        group = LayerGroup(("a", "b"), batch_unit=1)
        lms = LayerGroupMapping(group, {
            "a": MappingScheme(Partition(1, 1, 1, 2), (0, 1),
                               FlowOfData(1, 1, IMPLICIT)),
            "b": MappingScheme(Partition(2, 1, 1, 1), (2, 3),
                               FlowOfData(IMPLICIT, 1, 1)),
        })
        traffic = Evaluator(arch).analyze_group(g, lms)[2]
        totals = traffic.dram_round_bytes + traffic.dram_weight_once
        assert totals[0] > 0
        assert totals[1:].sum() == 0


class TestMappingEvaluation:
    def test_groups_chain_stored_at(self):
        g = two_layer_graph()
        arch = small_arch()
        g1 = LayerGroup(("a",), batch_unit=1)
        g2 = LayerGroup(("b",), batch_unit=1)
        lms1 = LayerGroupMapping(g1, {
            "a": MappingScheme(Partition(1, 1, 1, 1), (0,),
                               FlowOfData(0, 0, 2)),  # store to DRAM 2
        })
        lms2 = LayerGroupMapping(g2, {
            "b": MappingScheme(Partition(1, 1, 1, 1), (1,),
                               FlowOfData(IMPLICIT, 0, 0)),
        })
        ev = Evaluator(arch)
        result = ev.evaluate_mapping(g, [lms1, lms2], batch=1)
        assert result.delay == pytest.approx(
            sum(gr.delay for gr in result.groups)
        )
        assert result.energy.total == pytest.approx(
            sum(gr.energy.total for gr in result.groups)
        )

    def test_full_model_end_to_end(self):
        graph = build("RN-50")
        arch = g_arch()
        from repro.core.graphpart import partition_graph
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, grp, arch) for grp in groups]
        result = Evaluator(arch).evaluate_mapping(graph, lmss, batch=4)
        assert result.delay > 0
        assert result.energy.total > 0
        # MAC energy alone lower-bounds intra energy.
        from repro.arch import DEFAULT_ENERGY
        mac_j = graph.total_macs(4) * DEFAULT_ENERGY.e_mac
        assert result.energy.intra >= mac_j * 0.9


class TestPipelineModel:
    def test_utilization_decreases_with_depth(self):
        u_shallow = pipeline_utilization(rounds=16, depth=2)
        u_deep = pipeline_utilization(rounds=16, depth=12)
        assert u_shallow > u_deep

    def test_utilization_improves_with_rounds(self):
        assert pipeline_utilization(64, 8) > pipeline_utilization(4, 8)
