"""Unit tests for the NoC substrate."""

import pytest

from repro.arch import ArchConfig, MeshTopology
from repro.noc import TrafficMap, multicast_hop_savings, multicast_tree
from repro.units import GB, MB


@pytest.fixture
def topo():
    arch = ArchConfig(
        cores_x=4, cores_y=4, xcut=2, ycut=1,
        dram_bw=64 * GB, noc_bw=32 * GB, d2d_bw=16 * GB,
        glb_bytes=1 * MB, macs_per_core=1024,
    )
    return MeshTopology(arch)


class TestTrafficMap:
    def test_flow_adds_on_every_route_link(self, topo):
        tm = TrafficMap(topo)
        src, dst = ("core", 0, 0), ("core", 3, 3)
        tm.add_on_links(topo.route(src, dst), 100.0)
        route = topo.route(src, dst)
        for idx in route:
            assert tm.volumes[idx] == 100.0
        assert tm.total_byte_hops() == 100.0 * len(route)

    def test_zero_volume_ignored(self, topo):
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 0, 0), ("core", 1, 0)), 0.0)
        assert tm.total_byte_hops() == 0.0

    def test_serialization_time_uses_link_bandwidth(self, topo):
        tm = TrafficMap(topo)
        # Cross the D2D boundary: D2D bandwidth is half, so the D2D link
        # dominates the serialization time.
        tm.add_on_links(topo.route(("core", 1, 0), ("core", 2, 0)), 32 * GB)
        assert tm.serialization_time() == pytest.approx(2.0)

    def test_d2d_volume_counts_once_per_crossing(self, topo):
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 0, 0), ("core", 3, 0)), 10.0)
        assert tm.d2d_volume() == 10.0  # one boundary crossing

    def test_merge_and_scale(self, topo):
        a, b = TrafficMap(topo), TrafficMap(topo)
        a.add_on_links(topo.route(("core", 0, 0), ("core", 1, 0)), 5.0)
        b.add_on_links(topo.route(("core", 0, 0), ("core", 1, 0)), 7.0)
        a.merge(b)
        assert a.total_byte_hops() == 12.0
        assert a.scaled(2.0).total_byte_hops() == 24.0

    def test_dram_flow_touches_io_link(self, topo):
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(topo.dram_node(0), ("core", 2, 2)), 50.0)
        assert tm.io_volume() == 50.0


class TestMulticast:
    def test_tree_is_union_of_paths(self, topo):
        src = ("core", 0, 0)
        dsts = [("core", 3, 0), ("core", 3, 1)]
        tree = multicast_tree(topo, src, dsts)
        for d in dsts:
            assert set(topo.route(src, d)) <= tree

    def test_shared_prefix_saves_hops(self, topo):
        src = ("core", 0, 0)
        dsts = [("core", 3, 0), ("core", 3, 1), ("core", 3, 2)]
        assert multicast_hop_savings(topo, src, dsts) > 0

    def test_disjoint_paths_save_nothing(self, topo):
        src = ("core", 1, 1)
        dsts = [("core", 0, 1), ("core", 2, 1)]
        assert multicast_hop_savings(topo, src, dsts) == 0

    def test_single_destination_tree_is_path(self, topo):
        src, dst = ("core", 0, 0), ("core", 2, 2)
        assert multicast_tree(topo, src, [dst]) == frozenset(topo.route(src, dst))
