"""Tests for evaluator variants: the SerDes D2D energy model and the
GoogLeNet workload addition."""

import pytest

from repro.arch import ArchConfig, EnergyModel, g_arch
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator
from repro.units import GB, MB
from repro.workloads.models import build


@pytest.fixture(scope="module")
def tf_setup():
    graph = build("TF")
    arch = g_arch()
    groups = partition_graph(graph, arch, batch=8)
    lms = initial_lms(graph, groups[1], arch)
    return graph, arch, lms


class TestSerDesD2DModel:
    def test_clock_embedded_energy_is_power_times_latency(self):
        model = EnergyModel(clock_embedded_d2d=True)
        e = model.d2d_energy(volume_bytes=1e9, n_interfaces=10,
                             latency_s=2.0)
        assert e == pytest.approx(10 * model.p_d2d_serdes * 2.0)

    def test_clock_forwarding_energy_is_per_byte(self):
        model = EnergyModel(clock_embedded_d2d=False)
        e = model.d2d_energy(volume_bytes=1e9, n_interfaces=10,
                             latency_s=2.0)
        assert e == pytest.approx(1e9 * model.e_d2d)

    def test_serdes_charges_even_idle_links(self, tf_setup):
        """Clock-embedded D2D burns power regardless of traffic, so a
        mapping with little D2D traffic still pays (Sec V-B2)."""
        graph, arch, lms = tf_setup
        grs = Evaluator(arch, energy=EnergyModel()).evaluate_group(
            graph, lms, batch=8
        )
        serdes = Evaluator(
            arch, energy=EnergyModel(clock_embedded_d2d=True)
        ).evaluate_group(graph, lms, batch=8)
        assert serdes.energy.d2d > 0
        assert grs.energy.d2d > 0
        # Same mapping, same non-D2D energy.
        assert serdes.energy.intra == pytest.approx(grs.energy.intra)

    def test_monolithic_pays_no_serdes_power(self):
        graph = build("TF")
        arch = ArchConfig(
            cores_x=6, cores_y=6, xcut=1, ycut=1, dram_bw=144 * GB,
            noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=2 * MB,
            macs_per_core=1024,
        )
        groups = partition_graph(graph, arch, batch=4)
        lms = initial_lms(graph, groups[0], arch)
        ev = Evaluator(
            arch, energy=EnergyModel(clock_embedded_d2d=True)
        ).evaluate_group(graph, lms, batch=4)
        assert ev.energy.d2d == 0.0


class TestGoogleNet:
    def test_known_stats(self):
        g = build("GN")
        g.validate()
        # ~1.5 GMACs, ~6.8M parameters for Inception-v1.
        assert 1.3e9 < g.total_macs(1) < 1.9e9
        assert 6e6 < g.total_weight_bytes() < 8e6

    def test_inception_modules_concat_channels(self):
        g = build("GN")
        cat = g.layer("i3a_cat")
        assert cat.out_k == 64 + 128 + 32 + 32

    def test_maps_end_to_end(self):
        g = build("GN")
        arch = g_arch()
        groups = partition_graph(g, arch, batch=2)
        lmss = [initial_lms(g, grp, arch) for grp in groups]
        ev = Evaluator(arch).evaluate_mapping(g, lmss, batch=2)
        assert ev.delay > 0 and ev.energy.total > 0
