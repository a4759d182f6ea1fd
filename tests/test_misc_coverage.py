"""Coverage for remaining corners: torus D2D, heatmap rendering,
initial-scheme spare handling, flow-record round filtering."""


from repro.arch import ArchConfig, FoldedTorusTopology, MeshTopology
from repro.core import LayerGroup
from repro.core.initial import initial_lms
from repro.core.graphpart import partition_graph
from repro.evalmodel import Evaluator
from repro.evalmodel.traffic_analysis import FlowRecord, round_flows
from repro.noc import TrafficMap
from repro.reporting import link_heat, render_ascii
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType
from repro.workloads.models import build


def arch(x=4, y=4, xcut=2, ycut=1, **kw):
    defaults = dict(
        cores_x=x, cores_y=y, xcut=xcut, ycut=ycut, dram_bw=64 * GB,
        noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
        macs_per_core=1024,
    )
    defaults.update(kw)
    return ArchConfig(**defaults)


class TestTorusD2D:
    def test_wrap_link_crossing_cut_is_d2d(self):
        a = arch(x=4, y=2, xcut=2, ycut=1)
        topo = FoldedTorusTopology(a)
        wrap = topo.link_between(("core", 3, 0), ("core", 0, 0))
        assert wrap.is_d2d  # endpoints live on different chiplets

    def test_wrap_link_within_chiplet_is_not_d2d(self):
        a = arch(x=2, y=4, xcut=1, ycut=2)
        topo = FoldedTorusTopology(a)
        wrap = topo.link_between(("core", 1, 0), ("core", 0, 0))
        assert not wrap.is_d2d  # x wrap stays inside the chiplet column

    def test_torus_has_more_links_than_mesh(self):
        a = arch(x=4, y=4, xcut=1, ycut=1, d2d_bw=32 * GB)
        assert FoldedTorusTopology(a).n_links > MeshTopology(a).n_links


class TestHeatmapCorners:
    def test_empty_traffic_renders(self):
        topo = MeshTopology(arch())
        tm = TrafficMap(topo)
        art = render_ascii(tm)
        assert art.count("o") == 16
        assert link_heat(tm) == []

    def test_io_flag_propagates(self):
        topo = MeshTopology(arch())
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(topo.dram_node(0), ("core", 0, 0)), 10.0)
        records = link_heat(tm)
        assert any(r.is_io for r in records)

    def test_no_double_d2d_display_when_disabled(self):
        topo = MeshTopology(arch())
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 1, 0), ("core", 2, 0)), 10.0)
        [rec] = [r for r in link_heat(tm, double_d2d=False) if r.is_d2d]
        assert rec.display_volume == rec.volume


class TestInitialSparePool:
    def test_unfactorable_layer_returns_spares(self):
        """A layer whose extents cannot absorb its share gives cores
        back instead of breaking the encoding."""
        g = DNNGraph("g")
        g.add_layer(Layer("tiny", LayerType.FC, out_h=1, out_w=1,
                          out_k=3, in_c=64))
        g.add_layer(Layer("big", LayerType.CONV, out_h=32, out_w=32,
                          out_k=64, in_c=3), inputs=[])
        group = LayerGroup(("tiny", "big"), batch_unit=1)
        a = arch(x=4, y=4, xcut=1, ycut=1, d2d_bw=32 * GB)
        lms = initial_lms(g, group, a)
        # tiny can use at most 3 cores (k=3, everything else is 1).
        assert lms.scheme("tiny").n_cores <= 3
        assert lms.scheme("big").n_cores >= 1


class TestRoundFlows:
    def topo(self):
        return MeshTopology(arch())

    def test_once_flows_excluded(self):
        topo = self.topo()
        flows = [
            FlowRecord("weight", "l", topo.dram_node(0), ("core", 0, 0),
                       10.0, once=True),
            FlowRecord("ifmap", "l", ("core", 0, 0), ("core", 1, 0), 5.0),
        ]
        kept = round_flows(flows, topo)
        assert len(kept) == 1
        assert kept[0].kind == "ifmap"

    def test_multicast_collapsed_to_longest(self):
        topo = self.topo()
        dram = topo.dram_node(0)
        near = ("core", 0, 0)
        far = ("core", 3, 3)
        flows = [
            FlowRecord("weight", "l", dram, near, 10.0, multicast_group=1),
            FlowRecord("weight", "l", dram, far, 10.0, multicast_group=1),
        ]
        kept = round_flows(flows, topo)
        assert len(kept) == 1
        assert kept[0].dst == far

    def test_distinct_groups_kept_separately(self):
        topo = self.topo()
        dram = topo.dram_node(0)
        flows = [
            FlowRecord("weight", "l", dram, ("core", 0, 0), 10.0,
                       multicast_group=1),
            FlowRecord("weight", "l", dram, ("core", 1, 0), 10.0,
                       multicast_group=2),
        ]
        assert len(round_flows(flows, topo)) == 2

    def test_none_flows(self):
        assert round_flows(None, self.topo()) == []


class TestAnalyzerFlowFlags:
    def test_resident_weights_marked_once(self):
        graph = build("TF")
        a = ArchConfig(
            cores_x=6, cores_y=6, xcut=2, ycut=1, dram_bw=144 * GB,
            noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=8 * MB,
            macs_per_core=1024,
        )  # huge GLB: every TF weight slice is resident
        evaluator = Evaluator(a)
        group = partition_graph(graph, a, batch=8)[1]
        lms = initial_lms(graph, group, a)
        traffic = evaluator.analyze_group(graph, lms, flows=True)[2]
        weight_flows = [f for f in traffic.flows if f.kind == "weight"]
        assert weight_flows
        assert all(f.once for f in weight_flows)
        assert all(f.multicast_group is not None for f in weight_flows)
