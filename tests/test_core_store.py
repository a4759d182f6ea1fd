"""The core store: schedules, partition records, graphs and initial
mappings shared by every mapping run of one explorer or one sweep.

A :class:`DesignSpaceExplorer` and each ``run_sweep`` call own one
:class:`CoreStore` for their lifetime.  Sharing must never leak across
core parameters or initial-mapping inputs (every result equals a fresh
run's), must stay out of pickles, must reach pool workers under fork
and spawn alike, and must keep the surfaces the benchmark's per-layer
accounting reads.
"""

import multiprocessing as mp
import pickle
from dataclasses import replace

import pytest

import repro.core.engine as engine_mod
import repro.frontend.loader as loader_mod
from repro.arch.energy import DEFAULT_ENERGY
from repro.arch.params import ArchConfig
from repro.core.engine import MappingEngine, MappingEngineSettings
from repro.core.graphpart import PartitionInputs, partition_inputs
from repro.core.sa import SASettings
from repro.core.store import CoreStore
from repro.dse import DesignSpaceExplorer, Workload
from repro.evalmodel import Evaluator
from repro.fabric import apply_fabric
from repro.fabric.base import _ROUTE_MEMO
from repro.frontend import grid_scenarios, run_scenario, run_sweep
from repro.frontend.scenarios import SWEEP_PART_RECORDS, _run_scenario_full
from repro.intracore.cache import IntraCoreEngine, core_key
from repro.perf import PERF, LruDict
from repro.units import KB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType

#: A GLB half of which no K-slice of ``c1``'s 147 KB of weights fits in
#: on four cores, and one half of which holds them all.
SMALL_GLB, LARGE_GLB = 64 * KB, 1024 * KB


def weighty_graph():
    g = DNNGraph("weighty")
    specs = [("c0", 16, 64), ("c1", 64, 256), ("c2", 256, 32)]
    prev = None
    for name, in_c, out_k in specs:
        g.add_layer(
            Layer(name, LayerType.CONV, out_h=8, out_w=8, out_k=out_k,
                  in_c=in_c, kernel_r=3, kernel_s=3, pad_h=1, pad_w=1),
            inputs=[prev] if prev else None,
        )
        prev = name
    return g


BASE = ArchConfig(
    cores_x=2, cores_y=2, xcut=1, ycut=1, dram_bw=16e9, noc_bw=32e9,
    d2d_bw=16e9, glb_bytes=SMALL_GLB, macs_per_core=1024,
)

#: Core parameters alternate; pairs differ only in ``glb_bytes`` or
#: only in ``macs_per_core``, and later candidates repeat an earlier
#: core on another topology, bandwidth or chiplet cut.
CANDIDATES = [
    BASE,
    replace(BASE, glb_bytes=LARGE_GLB),
    replace(BASE, noc_bw=64e9),
    replace(BASE, macs_per_core=512),
    replace(BASE, glb_bytes=LARGE_GLB, dram_bw=32e9),
    replace(BASE, cores_x=4, xcut=2),
    replace(BASE, macs_per_core=512, noc_bw=64e9),
    replace(BASE, glb_bytes=LARGE_GLB, cores_x=4, xcut=2),
]


def make_explorer():
    return DesignSpaceExplorer(
        [Workload(weighty_graph(), batch=2)],
        sa_settings=SASettings(iterations=40, seed=3),
    )


def outcome(result):
    return result.delay, result.energy, result.score, result.per_workload


class TestKeyIsolation:
    def test_shared_results_equal_fresh_explorers(self):
        shared = make_explorer()
        for i, arch in enumerate(CANDIDATES):
            got = shared.evaluate_candidate(arch, index=i)
            alone = make_explorer().evaluate_candidate(arch, index=i)
            assert outcome(got) == outcome(alone), arch
        # One engine per core, handed to every topology with that core;
        # later candidates did reuse records.
        engines, parts = shared.store.engines, shared.store.parts
        assert len(engines) == 3
        assert parts.hits > 0

        # The GLB pair is a real hazard: a record of one partition is
        # weight-streamed under the small GLB and resident under the
        # large one, so sharing it across the two would change results.
        streamed = {}
        for (ns, lid, part, bu), rec in parts.items():
            glb = ns[0].arch.glb_bytes
            flag = rec.weight_streamed is not None
            streamed.setdefault((lid, part, bu), {})[glb] = flag
        assert any(
            by_glb.get(SMALL_GLB) and by_glb.get(LARGE_GLB) is False
            for by_glb in streamed.values()
        )


class TestPickling:
    def test_store_is_never_pickled(self):
        explorer = make_explorer()
        before = len(pickle.dumps(explorer))
        explorer.explore(CANDIDATES[:3], workers=1)
        assert explorer.store.parts and explorer.store.engines
        assert len(pickle.dumps(explorer)) <= before
        copy = pickle.loads(pickle.dumps(explorer)).store
        assert copy.part_records == explorer.store.part_records
        assert not copy.parts and not copy.engines


class TestEngineChecks:
    def test_oracle_builds_its_own_engine(self):
        store = CoreStore(8)
        engine = store.intracore(BASE, DEFAULT_ENERGY)
        production = Evaluator(BASE, store=store)
        assert production.intracore is engine
        assert production.compiled_for(weighty_graph()).parts is store.parts
        oracle = Evaluator(BASE, cache=False, store=store)
        assert oracle.intracore is not engine
        assert oracle.compiled_for(weighty_graph()) is None

    @pytest.mark.parametrize("field, value", [
        ("glb_bytes", LARGE_GLB), ("macs_per_core", 512),
        ("frequency", 2e9), ("glb_bytes_per_cycle", 32),
        ("vector_lanes", 32),
    ])
    def test_each_core_gets_its_own_engine(self, field, value):
        store = CoreStore(8)
        base = MappingEngine(BASE, store=store).evaluator.intracore
        arch = replace(BASE, **{field: value})
        engine = MappingEngine(arch, store=store).evaluator.intracore
        assert engine is not base
        assert engine.core_key == core_key(arch, DEFAULT_ENERGY)
        assert Evaluator(arch, store=store).intracore is engine

    def test_each_energy_model_gets_its_own_engine(self):
        store = CoreStore(8)
        energy = replace(DEFAULT_ENERGY, e_mac=2 * DEFAULT_ENERGY.e_mac)
        engine = Evaluator(BASE, energy=energy, store=store).intracore
        assert engine is not store.intracore(BASE, DEFAULT_ENERGY)
        assert engine.core_key == core_key(BASE, energy)


def plain(lmss):
    """A mapping as comparable values (mappings compare by identity)."""
    return [(lms.group, lms.schemes) for lms in lmss]


def other_graph():
    g = weighty_graph()
    g.name = "weighty-deeper"
    g.add_layer(
        Layer("c3", LayerType.CONV, out_h=8, out_w=8, out_k=16, in_c=32,
              kernel_r=1, kernel_s=1),
        inputs=["c2"],
    )
    return g


GRAPH = weighty_graph()
#: The initial-mapping key's inputs, ``(graph, batch, max_group_layers,
#: arch)``: the base case, then one key field changed per entry.
INITIAL_BASE = (GRAPH, 2, 10, BASE)
INITIAL_CHANGES = [
    ("graph", (other_graph(), 2, 10, BASE)),
    ("batch", (GRAPH, 4, 10, BASE)),
    ("max_group_layers", (GRAPH, 2, 2, BASE)),
    ("core count and cores_x", (GRAPH, 2, 10, replace(BASE, cores_x=4))),
    ("core count and cores_y", (GRAPH, 2, 10, replace(BASE, cores_y=4))),
    ("peak MAC rate (MACs)", (GRAPH, 2, 10,
                              replace(BASE, macs_per_core=512))),
    ("peak MAC rate (clock)", (GRAPH, 2, 10, replace(BASE, frequency=2e9))),
    ("DRAM bandwidth", (GRAPH, 2, 10, replace(BASE, dram_bw=24e9))),
    ("DRAM count", (GRAPH, 2, 10, replace(BASE, dram_bw=64e9))),
]
#: Arch changes outside the key: the entry is shared.
INITIAL_SHARED = [
    replace(BASE, noc_bw=64e9),
    replace(BASE, d2d_bw=8e9),
    replace(BASE, glb_bytes=LARGE_GLB),
    replace(BASE, xcut=2),
    apply_fabric(BASE, "ring"),
]


def initial(case, store=None):
    graph, batch, max_group_layers, arch = case
    return MappingEngine(
        arch, store=store,
        settings=MappingEngineSettings(max_group_layers=max_group_layers),
    ).initial_mapping(graph, batch)


class TestInitialMappings:
    def test_each_key_field_gives_a_new_entry_equal_to_a_fresh_one(self):
        store = CoreStore(8)
        initial(INITIAL_BASE, store)
        for n, (field, case) in enumerate(INITIAL_CHANGES, start=2):
            got = initial(case, store)
            assert len(store._initial) == n, field
            assert plain(got) == plain(initial(case)), field
            # A repeat is served from the entry.
            assert plain(initial(case, store)) == plain(got), field
            assert len(store._initial) == n, field

    def test_fields_outside_the_key_share_the_entry(self):
        store = CoreStore(8)
        first = initial(INITIAL_BASE, store)
        for arch in INITIAL_SHARED:
            case = (*INITIAL_BASE[:3], arch)
            got = initial(case, store)
            assert len(store._initial) == 1, arch
            assert plain(got) == plain(initial(case)) == plain(first), arch

    def test_callers_get_their_own_list(self):
        store = CoreStore(8)
        got = initial(INITIAL_BASE, store)
        got.clear()
        assert initial(INITIAL_BASE, store)

    def test_builders_read_the_arch_only_through_the_key(self, monkeypatch):
        """The partitioner and the stripe heuristic get the arch as the
        key's :class:`PartitionInputs`, so a field outside the key
        cannot be read."""
        seen = []

        def spy(fn, at):
            def wrapper(*args, **kwargs):
                seen.append(args[at])
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(engine_mod, "partition_graph", spy(
            engine_mod.partition_graph, 1))
        monkeypatch.setattr(engine_mod, "initial_lms", spy(
            engine_mod.initial_lms, 2))
        store = CoreStore(8)
        initial(INITIAL_BASE, store)
        view = partition_inputs(BASE)
        assert len(seen) > 1
        assert all(type(a) is PartitionInputs and a == view for a in seen)
        [key] = store._initial
        assert key[-1] == view


class TestBenchContract:
    def test_explorer_ceval_exposes_the_shared_parts_store(self, monkeypatch):
        """Per-map cache deltas are taken over ``vars(ceval)``: the
        shared store must be found there under its name, and show the
        cross-candidate hits."""
        seen = []
        real_map = MappingEngine.map

        def spy(engine, graph, *args, **kwargs):
            ceval = engine.evaluator.compiled_for(graph)
            hits = ceval.parts.hits
            result = real_map(engine, graph, *args, **kwargs)
            seen.append((ceval, ceval.parts.hits - hits))
            return result

        monkeypatch.setattr(MappingEngine, "map", spy)
        explorer = make_explorer()
        explorer.explore([BASE, replace(BASE, noc_bw=64e9)], workers=1)
        store = explorer.store.parts
        for ceval, _ in seen:
            named = [d for d in vars(ceval).values()
                     if isinstance(d, LruDict) and d.name == "compiled.parts"]
            assert len(named) == 1 and named[0] is store
        assert seen[1][1] > 0
        assert callable(IntraCoreEngine.schedule)


#: Two models x two batches x three fabrics on G-Arch.
SWEEP = grid_scenarios(["MBV2", "GPT-Dec"], [1, 4], ["g-arch"], iters=4,
                       fabrics=["mesh", "folded-torus", "ring"])


@pytest.fixture(scope="module")
def alone(tmp_path_factory):
    """Each scenario of :data:`SWEEP` run on its own."""
    out = tmp_path_factory.mktemp("alone")
    return out, [run_scenario(sc, out_dir=out) for sc in SWEEP]


@pytest.fixture
def start_method(request):
    """Run one test under a pool start method, then restore."""
    old = mp.get_start_method(allow_none=True)
    mp.set_start_method(request.param, force=True)
    try:
        yield request.param
    finally:
        mp.set_start_method(old or "fork", force=True)


class TestSweepStore:
    @pytest.mark.parametrize("start_method, workers", [
        ("fork", 1), ("fork", 2), ("spawn", 2),
    ], indirect=["start_method"])
    def test_sweep_equals_each_scenario_alone(self, alone, tmp_path,
                                              start_method, workers):
        out, expected = alone
        got = run_sweep(SWEEP, out_dir=tmp_path, workers=workers)
        assert got == expected
        for sc in SWEEP:
            path = f"{sc.slug()}/mapping.json"
            assert (tmp_path / path).read_bytes() == \
                (out / path).read_bytes(), sc.name

    def test_in_process_sweep_loads_and_partitions_once(self, monkeypatch):
        calls = {"load_model": 0, "partition_graph": 0}

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(loader_mod, "load_model", counting(
            "load_model", loader_mod.load_model))
        monkeypatch.setattr(engine_mod, "partition_graph", counting(
            "partition_graph", engine_mod.partition_graph))
        _ROUTE_MEMO.clear()
        PERF.reset()
        run_sweep(SWEEP, workers=1)
        # One load per model, one partition per (model, batch), one
        # core and one DRAM table build per fabric.
        assert calls == {"load_model": 2, "partition_graph": 4}
        timers = PERF.snapshot()["timers"]
        for kind in ("mesh", "folded-torus", "ring"):
            assert timers[f"fabric.route_tables.{kind}"]["calls"] == 2, kind

    def test_sweep_store_pickles_without_contents(self):
        store = CoreStore(SWEEP_PART_RECORDS)
        empty = pickle.dumps(store)
        for sc in SWEEP[:3]:
            _run_scenario_full(sc, None, store)
        assert store.parts and store.engines
        assert store._models and store._initial
        assert pickle.dumps(store) == empty
        copy = pickle.loads(empty)
        assert copy.part_records == SWEEP_PART_RECORDS
        assert not (copy.parts or copy.engines or copy._models
                    or copy._initial)
