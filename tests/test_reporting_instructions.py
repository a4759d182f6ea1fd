"""Tests for reporting (heatmaps, tables) and instruction generation."""

import pytest

from repro.arch import ArchConfig, MeshTopology, g_arch
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.instructions import (
    Opcode,
    conservation_check,
    generate_programs,
)
from repro.noc import TrafficMap
from repro.reporting import (
    ComparisonRow,
    format_table,
    heat_summary,
    link_heat,
    render_ascii,
    to_csv,
)
from repro.units import GB, MB
from repro.workloads.models import build


@pytest.fixture(scope="module")
def tf_setup():
    graph = build("TF")
    arch = g_arch()
    groups = partition_graph(graph, arch, batch=8)
    lms = initial_lms(graph, groups[1], arch)
    return graph, arch, lms


class TestHeatmap:
    def topo(self):
        arch = ArchConfig(
            cores_x=4, cores_y=2, xcut=2, ycut=1, dram_bw=32 * GB,
            noc_bw=32 * GB, d2d_bw=16 * GB, glb_bytes=1 * MB,
            macs_per_core=1024,
        )
        return MeshTopology(arch)

    def test_link_heat_sorted_desc(self):
        topo = self.topo()
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 0, 0), ("core", 3, 0)), 100.0)
        tm.add_on_links(topo.route(("core", 0, 1), ("core", 1, 1)), 10.0)
        records = link_heat(tm)
        vols = [r.display_volume for r in records]
        assert vols == sorted(vols, reverse=True)

    def test_d2d_volume_doubled_for_display(self):
        topo = self.topo()
        tm = TrafficMap(topo)
        # The flow crosses the cut.
        tm.add_on_links(topo.route(("core", 1, 0), ("core", 2, 0)), 50.0)
        [record] = [r for r in link_heat(tm) if r.is_d2d]
        assert record.volume == 50.0
        assert record.display_volume == 100.0

    def test_summary_keys(self):
        topo = self.topo()
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 0, 0), ("core", 3, 0)), 100.0)
        summary = heat_summary(tm)
        assert summary["total_hop_bytes"] == 300.0
        assert summary["d2d_bytes"] == 100.0

    def test_ascii_render_has_mesh_shape(self):
        topo = self.topo()
        tm = TrafficMap(topo)
        tm.add_on_links(topo.route(("core", 0, 0), ("core", 3, 0)), 100.0)
        art = render_ascii(tm)
        assert art.count("o") == 8
        assert "[" in art  # D2D links bracketed


class TestTables:
    def test_format_table_aligns(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bb", 22.5]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert lines[0].startswith("name")

    def test_to_csv(self):
        out = to_csv(["a", "b"], [[1, 2]])
        assert out.splitlines() == ["a,b", "1,2"]

    def test_comparison_row_ratios(self):
        row = ComparisonRow("TF", 64, delay_ratio=0.5, energy_ratio=0.8)
        assert row.speedup == pytest.approx(2.0)
        assert row.efficiency_gain == pytest.approx(1.25)


class TestInstructionGen:
    def test_programs_cover_used_cores(self, tf_setup):
        graph, arch, lms = tf_setup
        programs = generate_programs(graph, lms, arch)
        used = lms.cores_used()
        assert used <= set(programs)

    def test_conservation(self, tf_setup):
        graph, arch, lms = tf_setup
        programs = generate_programs(graph, lms, arch)
        sent, received = conservation_check(programs)
        assert sent == pytest.approx(received)

    def test_every_program_ends_with_sync(self, tf_setup):
        graph, arch, lms = tf_setup
        programs = generate_programs(graph, lms, arch)
        for p in programs.values():
            assert p.instructions[-1].op is Opcode.SYNC

    def test_compute_precedes_send_per_layer(self, tf_setup):
        graph, arch, lms = tf_setup
        programs = generate_programs(graph, lms, arch)
        for p in programs.values():
            seen_compute: set[str] = set()
            for instr in p.instructions:
                if instr.op is Opcode.COMPUTE:
                    seen_compute.add(instr.layer)
                if instr.op is Opcode.SEND:
                    assert instr.layer in seen_compute

    def test_compute_macs_match_workload(self, tf_setup):
        graph, arch, lms = tf_setup
        programs = generate_programs(graph, lms, arch)
        total = sum(p.compute_macs() for p in programs.values())
        expected = sum(
            graph.layer(n).macs(lms.group.batch_unit)
            for n in lms.group.layers
        )
        assert total == pytest.approx(expected)
