"""The explorer's core store: schedules and partition records shared by
candidates with the same core micro-architecture.

A :class:`DesignSpaceExplorer` keeps one intra-core engine per core and
one partition-record store for its whole life.  Sharing must never leak
across core parameters (every result equals a fresh explorer's), must
stay out of pickles, and must keep the surfaces the benchmark's
per-layer accounting reads.
"""

import pickle
from dataclasses import replace

import pytest

from repro.arch.energy import DEFAULT_ENERGY
from repro.arch.params import ArchConfig
from repro.core.engine import MappingEngine
from repro.core.sa import SASettings
from repro.dse import DesignSpaceExplorer, Workload
from repro.evalmodel import Evaluator
from repro.intracore.cache import IntraCoreEngine
from repro.perf import LruDict
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
        engines, parts = shared._core_store
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
        assert explorer._core_store is not None
        assert len(pickle.dumps(explorer)) <= before
        assert pickle.loads(pickle.dumps(explorer))._core_store is None


class TestEngineChecks:
    def test_oracle_builds_its_own_engine(self):
        engine = IntraCoreEngine(BASE, DEFAULT_ENERGY)
        parts = LruDict(8, name="compiled.parts")
        assert Evaluator(BASE, intracore=engine).intracore is engine
        oracle = Evaluator(BASE, cache=False, intracore=engine, parts=parts)
        assert oracle.intracore is not engine
        assert oracle.compiled_for(weighty_graph()) is None

    @pytest.mark.parametrize("field, value", [
        ("glb_bytes", LARGE_GLB), ("macs_per_core", 512),
        ("frequency", 2e9), ("glb_bytes_per_cycle", 32),
        ("vector_lanes", 32),
    ])
    def test_mismatched_engine_raises(self, field, value):
        engine = IntraCoreEngine(replace(BASE, **{field: value}),
                                 DEFAULT_ENERGY)
        with pytest.raises(ValueError, match="core parameters"):
            Evaluator(BASE, intracore=engine)
        with pytest.raises(ValueError, match="core parameters"):
            MappingEngine(BASE, intracore=engine)

    def test_mismatched_energy_model_raises(self):
        engine = IntraCoreEngine(BASE, DEFAULT_ENERGY)
        energy = replace(DEFAULT_ENERGY, e_mac=2 * DEFAULT_ENERGY.e_mac)
        with pytest.raises(ValueError, match="core parameters"):
            Evaluator(BASE, energy=energy, intracore=engine)


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
        store = explorer._core_store[1]
        for ceval, _ in seen:
            named = [d for d in vars(ceval).values()
                     if isinstance(d, LruDict) and d.name == "compiled.parts"]
            assert len(named) == 1 and named[0] is store
        assert seen[1][1] > 0
        assert callable(IntraCoreEngine.schedule)
