"""Fabric subsystem: spec parsing, registry dispatch, default-mesh
bit-identity, cross-fabric evaluation identity, and serialization."""

import json
from dataclasses import replace
from itertools import combinations

import numpy as np
import pytest

from repro.arch import ArchConfig, build_topology, g_arch
from repro.errors import InvalidArchitectureError
from repro.evalmodel import Evaluator
from repro.fabric import (
    DEFAULT_FABRIC,
    FABRIC_REGISTRY,
    ConcentratedMeshTopology,
    FabricSpec,
    FoldedTorusTopology,
    MeshTopology,
    RingTopology,
    Topology,
    apply_fabric,
    format_fabric,
    parse_fabric,
    register_fabric,
)
from repro.fabric.base import _ROUTE_MEMO, ROUTE_STRUCTURES
from repro.fabric.spec import ROUTING_POLICIES
from repro.io.serialization import arch_from_dict, arch_to_dict
from repro.units import GB, KB, MB
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


#: Every shipped non-default fabric, as (spec string, topology class).
NON_DEFAULT_FABRICS = (
    ("folded-torus", FoldedTorusTopology),
    ("cmesh:c2", ConcentratedMeshTopology),
    ("ring", RingTopology),
)


class TestSpec:
    def test_parse_format_roundtrip(self):
        for text in ("mesh", "folded-torus", "folded-torus:yx",
                     "cmesh:c2", "cmesh:yx:c2", "ring",
                     "folded-torus:wrap=x",
                     "mesh:dimension-reversal"):
            spec = parse_fabric(text)
            assert format_fabric(spec) == text
            assert parse_fabric(format_fabric(spec)) == spec

    def test_parse_routing_alias(self):
        assert parse_fabric("mesh:dr").routing == "dimension-reversal"

    def test_parse_rejects_unknown_kind(self):
        with pytest.raises(InvalidArchitectureError):
            parse_fabric("hypercube")

    def test_parse_rejects_bad_token(self):
        with pytest.raises(InvalidArchitectureError):
            parse_fabric("mesh:zigzag")

    def test_parse_rejects_bad_knob_values(self):
        """Bad knob values must fail at parse time (CLI pre-flight),
        not vanish silently from a candidate grid or crash a worker."""
        with pytest.raises(InvalidArchitectureError):
            parse_fabric("folded-torus:wrap=z")
        with pytest.raises(InvalidArchitectureError):
            parse_fabric("cmesh:c0")

    def test_content_normalizes_unconsumed_knobs(self):
        """Specs that build identical hardware share digest content."""
        assert parse_fabric("mesh:c2").content() == \
            parse_fabric("mesh").content()
        assert parse_fabric("ring:yx").content() == \
            parse_fabric("ring").content()
        assert parse_fabric("mesh:wrap=x").content() == \
            parse_fabric("mesh").content()
        assert parse_fabric("cmesh:c2").content() != \
            parse_fabric("cmesh").content()
        assert parse_fabric("folded-torus:wrap=x").content() != \
            parse_fabric("folded-torus").content()

    def test_equivalent_fabrics_dedup_in_candidate_grid(self):
        from repro.dse import DseGrid, enumerate_candidates

        base = DseGrid(
            tops=72, cuts=(1,), dram_bw_per_tops=(2.0,),
            noc_bw_gbps=(32,), d2d_ratio=(0.5,), glb_kb=(1024,),
            macs_per_core=(1024,),
        )
        one = enumerate_candidates(base)
        doubled = enumerate_candidates(replace(
            base, fabrics=(parse_fabric("ring"), parse_fabric("ring:yx"))
        ))
        assert len(doubled) == len(one)  # same hardware, one candidate

    def test_default_formats_as_mesh(self):
        assert format_fabric(DEFAULT_FABRIC) == "mesh"

    def test_name_is_cosmetic_in_content(self):
        spec = FabricSpec(kind="ring", name="my ring")
        assert spec.content() == FabricSpec(kind="ring").content()

    def test_arch_rejects_bad_routing(self):
        with pytest.raises(InvalidArchitectureError):
            arch(fabric=FabricSpec(routing="north-last"))

    def test_arch_rejects_nondividing_concentration(self):
        with pytest.raises(InvalidArchitectureError):
            arch(x=6, y=6, xcut=1, fabric=FabricSpec(
                kind="cmesh", concentration=4))

    def test_arch_rejects_non_spec_fabric(self):
        with pytest.raises(InvalidArchitectureError):
            arch(fabric="mesh")


class TestPresetsAndCli:
    def test_torus_presets_declare_their_fabric(self):
        """The Sec VI-B2 accelerators are tori by construction — the
        presets must evaluate as such without extra flags."""
        from repro.arch import g_arch_120, t_arch

        for preset in (t_arch, g_arch_120):
            a = preset()
            assert a.fabric.kind == "folded-torus"
            assert type(build_topology(a)) is FoldedTorusTopology

    def test_sweep_routing_flag_is_not_dropped(self):
        """`repro sweep --routing yx` must reach the scenarios."""
        import argparse

        from repro.cli.main import fabric_axis
        from repro.fabric import format_fabric

        def sweep_fabrics(**flags):
            specs = fabric_axis(argparse.Namespace(**flags))
            return None if specs is None else [format_fabric(s)
                                               for s in specs]

        assert sweep_fabrics(fabric=["mesh", "folded-torus"],
                             routing="yx") == ["mesh:yx", "folded-torus:yx"]
        assert sweep_fabrics(fabric=None, routing="yx") == ["mesh:yx"]
        assert sweep_fabrics(fabric=None, routing=None) is None

    # A two-candidate slice of the quick grid at a minimal budget.
    GRID = ["--models", "MBV2", "--batch", "1", "--iters", "2",
            "--max-candidates", "2", "--routing", "yx"]

    def test_dse_routing_flag_alone_reaches_the_best_arch(self, tmp_path):
        import json

        from repro.cli import main

        assert main(["dse", *self.GRID, "--out", str(tmp_path)]) == 0
        best = json.loads((tmp_path / "best_arch.json").read_text())
        assert best["fabric"]["kind"] == "mesh"
        assert best["fabric"]["routing"] == "yx"

    def test_campaign_routing_flag_alone_reaches_the_manifest(
        self, tmp_path
    ):
        from repro.campaign.runner import load_manifest
        from repro.cli import main

        assert main(["campaign", "run", "--name", "yx", *self.GRID,
                     "--out", str(tmp_path)]) == 0
        archs = load_manifest(tmp_path, "yx")["archs"]
        assert len(archs) == 2
        assert all(a["fabric"]["routing"] == "yx" for a in archs)


class TestRegistry:
    def test_shipped_kinds_registered(self):
        for kind in ("mesh", "folded-torus", "cmesh", "ring"):
            assert kind in FABRIC_REGISTRY

    def test_build_dispatches_on_spec(self):
        for text, cls in (("mesh", MeshTopology), *NON_DEFAULT_FABRICS):
            a = apply_fabric(g_arch(), text)
            topo = build_topology(a)
            assert type(topo) is cls
            assert isinstance(topo, Topology)

    def test_register_rejects_duplicate_kind(self):
        class FakeMesh(MeshTopology):
            kind = "mesh"

        with pytest.raises(ValueError):
            register_fabric(FakeMesh)

    def test_register_requires_kind(self):
        class NoKind:
            pass

        with pytest.raises(ValueError):
            register_fabric(NoKind)

    def test_apply_fabric_routing_only(self):
        a = apply_fabric(g_arch(), routing="yx")
        assert a.fabric == FabricSpec(routing="yx")

    def test_apply_fabric_noop_returns_same_arch(self):
        a = g_arch()
        assert apply_fabric(a) is a
        assert apply_fabric(a, "mesh") is a


class TestDefaultMeshIdentity:
    """The refactor must not move a single bit on the default fabric."""

    def test_links_identical_to_hand_built_mesh(self):
        a = g_arch()
        built = build_topology(a)
        mesh = MeshTopology(a)
        assert type(built) is MeshTopology
        assert [
            (l.src, l.dst, l.bandwidth, l.is_d2d, l.is_io)
            for l in built.links
        ] == [
            (l.src, l.dst, l.bandwidth, l.is_d2d, l.is_io)
            for l in mesh.links
        ]

    def test_all_routes_identical_to_hand_built_mesh(self):
        a = arch(x=5, y=3, xcut=1, ycut=1, d2d_bw=32 * GB)
        built, mesh = build_topology(a), MeshTopology(a)
        nodes = built.core_nodes() + list(built.dram_nodes())
        for s in nodes:
            for d in nodes:
                assert built.route(s, d) == mesh.route(s, d)

    def test_evaluator_defaults_to_spec_topology(self):
        ev = Evaluator(g_arch())
        assert type(ev.topo) is MeshTopology
        assert ev.topo.kind == "mesh"

    def test_default_group_eval_bit_identical(self):
        """Spec-built and hand-built mesh evaluate float-exact equal."""
        from repro.core.graphpart import partition_graph
        from repro.core.initial import initial_lms

        a = g_arch()
        graph = build("MBV2")
        groups = partition_graph(graph, a, batch=2)
        lmss = [initial_lms(graph, g, a) for g in groups]
        by_spec = Evaluator(a).evaluate_mapping(graph, lmss, 2)
        by_hand = Evaluator(a, topo=MeshTopology(a)).evaluate_mapping(
            graph, lmss, 2
        )
        assert by_spec.delay == by_hand.delay
        assert by_spec.energy.total == by_hand.energy.total


class TestCrossFabricIdentity:
    """Compiled and object paths stay bit-identical on every fabric."""

    @pytest.mark.parametrize("text", [t for t, _ in NON_DEFAULT_FABRICS])
    def test_compiled_matches_uncached(self, text):
        from repro.core.graphpart import partition_graph
        from repro.core.initial import initial_lms

        a = apply_fabric(g_arch(), text)
        graph = build("MBV2")
        groups = partition_graph(graph, a, batch=2)
        lmss = [initial_lms(graph, g, a) for g in groups]
        compiled = Evaluator(a)  # compiled array-native path (default)
        objects = Evaluator(a, cache=False)  # reference object path
        stored: dict[str, int] = {}
        for lms in lmss:
            ev_c = compiled.evaluate_group(graph, lms, 2, stored)
            ev_o = objects.evaluate_group(graph, lms, 2, stored)
            assert ev_c.delay == ev_o.delay
            assert ev_c.energy.total == ev_o.energy.total
            assert ev_c.energy.noc == ev_o.energy.noc
            assert ev_c.energy.d2d == ev_o.energy.d2d
            assert ev_c.energy.dram == ev_o.energy.dram
            assert ev_c.stage_time == ev_o.stage_time
            assert tuple(ev_c.dram_round_bytes) == \
                tuple(ev_o.dram_round_bytes)
            for name in lms.group.layers:
                of = lms.scheme(name).fd.ofmap
                if of >= 0:
                    stored[name] = of

    @pytest.mark.parametrize("text", [t for t, _ in NON_DEFAULT_FABRICS])
    def test_sa_anneals_on_fabric(self, text):
        """The full engine (SA included) runs end-to-end per fabric."""
        from repro.core import MappingEngine, MappingEngineSettings, SASettings

        a = apply_fabric(g_arch(), text)
        engine = MappingEngine(
            a, settings=MappingEngineSettings(sa=SASettings(iterations=5))
        )
        result = engine.map(build("MBV2"), batch=1)
        assert result.delay > 0
        assert result.energy > 0


class TestSerialization:
    def test_default_fabric_omitted_from_dict(self):
        data = arch_to_dict(g_arch())
        assert "fabric" not in data

    def test_fabric_roundtrip(self):
        a = apply_fabric(g_arch(), "cmesh:yx:c2")
        data = arch_to_dict(a)
        assert data["fabric"]["kind"] == "cmesh"
        loaded = arch_from_dict(json.loads(json.dumps(data)))
        assert loaded == a
        assert loaded.fabric == a.fabric

    def test_prefabric_record_loads_mesh_default(self):
        data = arch_to_dict(g_arch())
        data.pop("fabric", None)  # what any old record looks like
        loaded = arch_from_dict(data)
        assert loaded.fabric == DEFAULT_FABRIC

    def test_named_fabric_roundtrips(self):
        a = replace(
            g_arch(), fabric=FabricSpec(kind="ring", name="ringo")
        )
        assert arch_from_dict(arch_to_dict(a)).fabric.name == "ringo"

    def test_save_load_arch_file(self, tmp_path):
        from repro.io.serialization import load_arch, save_arch

        a = apply_fabric(g_arch(), "folded-torus:wrap=x")
        save_arch(a, tmp_path / "a.json")
        assert load_arch(tmp_path / "a.json") == a


class TestScenarioFabric:
    def test_grid_scenarios_fabric_dimension(self):
        from repro.frontend.scenarios import grid_scenarios, scenario_arch

        scenarios = grid_scenarios(
            ["MBV2"], [1], ["g-arch"], fabrics=["", "folded-torus:yx"]
        )
        assert len(scenarios) == 2
        assert len({s.name for s in scenarios}) == 2
        plain, torus = scenarios
        assert scenario_arch(plain).fabric == DEFAULT_FABRIC
        assert scenario_arch(torus).fabric.kind == "folded-torus"
        assert scenario_arch(torus).fabric.routing == "yx"

    def test_grid_scenarios_reject_bad_fabric(self):
        from repro.frontend.scenarios import grid_scenarios

        with pytest.raises(InvalidArchitectureError):
            grid_scenarios(["MBV2"], [1], ["g-arch"], fabrics=["moebius"])

    def test_scenario_keys_differ_by_fabric(self):
        from repro.frontend.scenarios import _scenario_keys, grid_scenarios

        scenarios = grid_scenarios(
            ["MBV2"], [1], ["g-arch"], fabrics=["", "ring"]
        )
        keys = _scenario_keys(scenarios)
        assert len(set(keys.values())) == 2


class TestPerfSurface:
    def test_route_table_build_timed_per_fabric(self):
        from repro.perf import PERF

        PERF.reset()
        _ROUTE_MEMO.clear()  # tables are shared per process
        a = apply_fabric(g_arch(), "ring")
        topo = build_topology(a)
        topo.core_route_table()
        topo.dram_route_tables()
        snap = PERF.snapshot()
        assert "fabric.route_tables.ring" in snap["timers"]
        assert snap["counters"]["fabric.topologies.ring"] == 1

    def test_route_cache_hits_surface_in_cache_stats(self):
        from repro.perf import PERF

        PERF.reset()
        topo = build_topology(g_arch())
        src, dst = topo.core_node(0), topo.core_node(5)
        topo.route(src, dst)
        topo.route(src, dst)
        stats = PERF.cache_stats()
        assert stats["fabric.route"]["hits"] >= 1
        assert stats["fabric.route"]["misses"] >= 1


def tiny_graph():
    g = DNNGraph("tiny")
    g.add_layer(Layer("c0", LayerType.CONV, out_h=8, out_w=8, out_k=32,
                      in_c=16, kernel_r=3, kernel_s=3, pad_h=1, pad_w=1))
    g.add_layer(Layer("c1", LayerType.CONV, out_h=8, out_w=8, out_k=32,
                      in_c=32, kernel_r=1, kernel_s=1), inputs=["c0"])
    return g


#: Every registered fabric kind under every routing policy.
ROUTED = [
    FabricSpec(kind=kind, routing=routing,
               concentration=2 if kind == "cmesh" else 1)
    for kind in sorted(FABRIC_REGISTRY) for routing in ROUTING_POLICIES
]
#: Arch changes that keep the fabric structure: chiplet cuts,
#: bandwidths, GLB size and MACs.
SAME_STRUCTURE = (
    dict(),
    dict(xcut=1, ycut=1),
    dict(xcut=2, ycut=2),
    dict(noc_bw=64 * GB, d2d_bw=8 * GB),
    dict(glb_bytes=256 * KB),
    dict(macs_per_core=512),
)


def served_arrays(a, graph):
    """Every array the route memo serves for ``a``: the topology's route
    tables and the compiled core's bitsets and stacked DRAM tables."""
    evaluator = Evaluator(a)
    ceval = evaluator.compiled_for(graph)
    return (*evaluator.topo.core_route_table(),
            *evaluator.topo.dram_route_tables(),
            ceval.core_table, ceval.core_lens, ceval.route_words,
            *(arr for tables in ceval._dram_tables for arr in tables))


@pytest.fixture
def empty_memo():
    _ROUTE_MEMO.clear()
    yield
    _ROUTE_MEMO.clear()


class TestRouteMemo:
    @pytest.mark.parametrize("spec", ROUTED, ids=format_fabric)
    def test_served_tables_equal_a_fresh_build(self, spec, empty_memo):
        graph = tiny_graph()
        variants = [replace(arch(**kw), fabric=spec) for kw in SAME_STRUCTURE]
        served = [served_arrays(a, graph) for a in variants]
        # One build serves every variant.
        for got in served[1:]:
            assert all(x is y for x, y in zip(got, served[0]))
        for a, got in zip(variants, served):
            _ROUTE_MEMO.clear()
            fresh = served_arrays(a, graph)
            assert len(fresh) == len(got)
            for x, y in zip(got, fresh):
                assert x is not y
                assert x.dtype == y.dtype and np.array_equal(x, y)

    def test_different_structures_never_share(self, empty_memo):
        graph = tiny_graph()
        base = arch()
        archs = [
            base,
            apply_fabric(base, "mesh:yx"),
            apply_fabric(base, "folded-torus"),
            apply_fabric(base, "folded-torus:wrap=x"),
            apply_fabric(base, "cmesh:c2"),
            apply_fabric(base, "ring"),
            replace(base, cores_x=8),
            replace(base, cores_y=2, ycut=1),
            replace(base, dram_bw=128 * GB),
        ]
        keys = {build_topology(a).structure_key() for a in archs}
        assert len(keys) == len(archs)
        served = [served_arrays(a, graph) for a in archs]
        for i, j in combinations(range(len(archs)), 2):
            assert not any(x is y for x in served[i] for y in served[j])
        assert len(_ROUTE_MEMO) == ROUTE_STRUCTURES

    def test_served_arrays_are_read_only(self, empty_memo):
        for x in served_arrays(arch(), tiny_graph()):
            with pytest.raises(ValueError, match="read-only"):
                x.flat[0] = x.flat[0]
