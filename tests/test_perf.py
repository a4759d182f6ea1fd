"""Tests for the perf subsystem and the evaluation cache layers."""

import gc

import pytest

from repro.arch import ArchConfig
from repro.arch.energy import DEFAULT_ENERGY
from repro.core import SAController, SASettings
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.evalmodel import Evaluator
from repro.intracore.cache import IntraCoreEngine
from repro.intracore.dataflow import CoreWorkload
from repro.perf import LruDict, PerfRegistry, emit_bench, read_bench
from repro.perf.counters import cache_stats, snapshot_delta
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


def chain_graph(n=4):
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


class TestPerfRegistry:
    def test_counters_accumulate(self):
        reg = PerfRegistry()
        reg.add("x")
        reg.add("x", 4)
        assert reg.get("x") == 5
        assert reg.get("missing") == 0

    def test_timers_accumulate(self):
        reg = PerfRegistry()
        with reg.time("t"):
            pass
        with reg.time("t"):
            pass
        assert reg.timer_calls("t") == 2
        assert reg.timer_seconds("t") >= 0.0

    def test_hit_rate(self):
        reg = PerfRegistry()
        reg.add("c.hits", 3)
        reg.add("c.misses", 1)
        assert reg.hit_rate("c") == pytest.approx(0.75)
        assert reg.hit_rate("empty") == 0.0

    def test_snapshot_merge_roundtrip(self):
        a, b = PerfRegistry(), PerfRegistry()
        a.add("n", 2)
        with a.time("t"):
            pass
        b.merge(a.snapshot())
        b.merge(a.snapshot())
        assert b.get("n") == 4
        assert b.timer_calls("t") == 2

    def test_rows_and_reset(self):
        reg = PerfRegistry()
        reg.add("n")
        assert reg.rows()
        reg.reset()
        assert not reg.rows()


class TestLruDict:
    def test_evicts_least_recently_used(self):
        d = LruDict(max_entries=2)
        d.put("a", 1)
        d.put("b", 2)
        assert d.get_lru("a") == 1  # refresh "a"
        d.put("c", 3)
        assert "b" not in d
        assert d.get_lru("a") == 1
        assert d.get_lru("c") == 3


class TestBenchEmission:
    def test_emit_and_merge_sections(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        emit_bench("one", {"v": 1}, path)
        emit_bench("two", {"v": 2}, path)
        data = read_bench(path)
        assert data["one"] == {"v": 1}
        assert data["two"] == {"v": 2}
        assert "machine" in data

    def test_read_missing_returns_empty(self, tmp_path):
        assert read_bench(tmp_path / "nope.json") == {}

    def test_write_is_atomic(self, tmp_path, monkeypatch):
        """A crash mid-write must leave the previous JSON intact."""
        import repro.io.atomic as atomic_mod

        path = tmp_path / "BENCH_perf.json"
        emit_bench("one", {"v": 1}, path)

        real_fdopen = atomic_mod.os.fdopen

        class Exploding:
            def __init__(self, f):
                self.f = f

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()
                return False

            def write(self, text):
                self.f.write(text[: len(text) // 2])
                raise RuntimeError("killed mid-write")

        monkeypatch.setattr(
            atomic_mod.os, "fdopen",
            lambda fd, mode: Exploding(real_fdopen(fd, mode)),
        )
        with pytest.raises(RuntimeError):
            emit_bench("two", {"v": 2}, path)
        monkeypatch.undo()
        # The original file is whole and parseable; no temp litter.
        data = read_bench(path)
        assert data["one"] == {"v": 1}
        assert "two" not in data
        assert list(tmp_path.iterdir()) == [path]

    def test_no_temp_files_left_behind(self, tmp_path):
        path = tmp_path / "BENCH_perf.json"
        for i in range(3):
            emit_bench(f"s{i}", {"v": i}, path)
        assert list(tmp_path.iterdir()) == [path]

    def test_corrupt_file_is_preserved_not_clobbered(self, tmp_path, capsys):
        path = tmp_path / "BENCH_perf.json"
        path.write_text("{not json")
        emit_bench("one", {"v": 1}, path)
        assert read_bench(path)["one"] == {"v": 1}
        preserved = tmp_path / "BENCH_perf.json.corrupt-1"
        assert preserved.read_text() == "{not json"
        err = capsys.readouterr().err
        assert "corrupt" in err and "corrupt-1" in err

        # A second corruption gets its own numbered file.
        path.write_text("also broken")
        emit_bench("two", {"v": 2}, path)
        assert (tmp_path / "BENCH_perf.json.corrupt-2").read_text() == \
            "also broken"
        assert preserved.read_text() == "{not json"

    def test_valid_json_wrong_shape_is_preserved_too(self, tmp_path, capsys):
        path = tmp_path / "BENCH_perf.json"
        path.write_text("[1, 2, 3]")
        emit_bench("one", {"v": 1}, path)
        assert read_bench(path)["one"] == {"v": 1}
        assert (tmp_path / "BENCH_perf.json.corrupt-1").read_text() == \
            "[1, 2, 3]"
        assert "corrupt" in capsys.readouterr().err


class TestIntraCoreLru:
    def wl(self, k):
        return CoreWorkload(kind=LayerType.CONV, b=1, k=k, h=8, w=8, c=16,
                            r=3, s=3)

    def test_lru_eviction_order(self):
        eng = IntraCoreEngine(small_arch(), DEFAULT_ENERGY, max_entries=2)
        eng.schedule(self.wl(8))
        eng.schedule(self.wl(16))
        eng.schedule(self.wl(8))       # refresh k=8
        eng.schedule(self.wl(32))      # evicts k=16, not k=8
        assert eng.evictions == 1
        hits_before = eng.hits
        eng.schedule(self.wl(8))
        assert eng.hits == hits_before + 1
        assert len(eng) == 2

    def test_capacity_bound_holds(self):
        eng = IntraCoreEngine(small_arch(), DEFAULT_ENERGY, max_entries=3)
        for k in (2, 4, 8, 16, 32, 64):
            eng.schedule(self.wl(k))
        assert len(eng) <= 3


class TestEvaluatorCaches:
    def test_cached_equals_uncached_group_evals(self):
        graph = chain_graph()
        arch = small_arch()
        cached = Evaluator(arch, cache=True)
        uncached = Evaluator(arch, cache=False)
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        stored = {}
        for lms in lmss:
            a = cached.evaluate_group(graph, lms, 4, stored)
            again = cached.evaluate_group(graph, lms, 4, stored)
            b = uncached.evaluate_group(graph, lms, 4, stored)
            for ev in (again, b):
                assert ev.delay == a.delay
                assert ev.energy.total == a.energy.total
                assert ev.stage_time == a.stage_time
                assert tuple(ev.dram_round_bytes) == tuple(a.dram_round_bytes)
            for name in lms.group.layers:
                of = lms.scheme(name).fd.ofmap
                if of >= 0:
                    stored[name] = of

    def test_sa_trajectory_identical_cached_vs_uncached(self):
        graph = chain_graph()
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        runs = []
        for cache in (False, True):
            ev = Evaluator(arch, cache=cache)
            ctl = SAController(
                graph, ev, list(lmss), 4, SASettings(iterations=60, seed=7)
            )
            ctl.run()
            runs.append(ctl)
        assert runs[0].best_costs == runs[1].best_costs
        assert runs[0].stats.accepted == runs[1].stats.accepted
        assert runs[0].stats.final_cost == runs[1].stats.final_cost

    def test_incremental_stored_at_matches_full_rebuild(self):
        graph = chain_graph()
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=4)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        ev = Evaluator(arch)
        ctl = SAController(
            graph, ev, list(lmss), 4, SASettings(iterations=80, seed=1)
        )
        ctl.run()
        assert ctl._stored_at == ctl._stored_at_map(ctl.current)

    def test_stats_throughput_fields(self):
        graph = chain_graph(2)
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=2)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        ctl = SAController(
            graph, Evaluator(arch), list(lmss), 2,
            SASettings(iterations=10, seed=0),
        )
        ctl.run()
        assert ctl.stats.wall_time_s > 0
        assert ctl.stats.iters_per_sec > 0


class TestRoutePrecompute:
    def test_route_tables_match_route(self):
        from repro.arch import MeshTopology

        arch = small_arch()
        topo = MeshTopology(arch)
        table, lens = topo.core_route_table()
        for s in range(arch.n_cores):
            for d in range(arch.n_cores):
                row = s * arch.n_cores + d
                want = topo.route(topo.core_node(s), topo.core_node(d))
                got = tuple(table[row, : lens[row]])
                assert got == want
        to_dram, to_lens, from_dram, from_lens = topo.dram_route_tables()
        n_dram = arch.n_dram
        for c in range(arch.n_cores):
            for d in range(n_dram):
                row = c * n_dram + d
                assert tuple(to_dram[row, : to_lens[row]]) == topo.route(
                    topo.core_node(c), topo.dram_node(d)
                )
                assert tuple(from_dram[row, : from_lens[row]]) == topo.route(
                    topo.dram_node(d), topo.core_node(c)
                )


class TestNamedLruInstrumentation:
    def test_named_dict_tallies_hits_and_misses(self):
        d = LruDict(max_entries=4, name="test.cache")
        d.put("a", 1)
        assert d.get_lru("a") == 1
        assert d.get_lru("b") is None
        assert (d.hits, d.misses) == (1, 1)

    def test_snapshot_folds_named_lru_counters(self):
        from repro.perf import PERF

        start = PERF.snapshot()
        d = LruDict(max_entries=4, name="snaptest")
        d.put("a", 1)
        d.get_lru("a")
        d.get_lru("missing")
        added = snapshot_delta(start, PERF.snapshot())["counters"]
        assert added["lru.snaptest.hits"] == 1
        assert added["lru.snaptest.misses"] == 1

    def test_counts_outlive_the_cache(self):
        """Each lookup is counted as it happens, so a cache that is
        collected (a candidate's compiled tables) keeps its counts."""
        from repro.perf import PERF

        start = PERF.snapshot()
        d = LruDict(max_entries=4, name="gonetest")
        d.put("a", 1)
        d.get_lru("a")
        d.get_lru("missing")
        del d
        gc.collect()
        added = snapshot_delta(start, PERF.snapshot())["counters"]
        assert (added["lru.gonetest.hits"],
                added["lru.gonetest.misses"]) == (1, 1)

    def test_unnamed_dict_counts_nothing(self):
        from repro.perf import PERF

        start = PERF.snapshot()
        d = LruDict(max_entries=4)
        d.put("a", 1)
        d.get_lru("a")
        d.get_lru("missing")
        assert (d.hits, d.misses) == (1, 1)
        assert snapshot_delta(start, PERF.snapshot())["counters"] == \
            {name: 0 for name in start["counters"]}

    def test_cache_stats_merges_counters_and_live_dicts(self):
        from repro.perf import PERF

        start = PERF.snapshot()
        PERF.add("handrolled.hits", 3)
        PERF.add("handrolled.misses", 1)
        d = LruDict(max_entries=4, name="statstest")
        d.put("k", 1)
        d.get_lru("k")
        stats = cache_stats(snapshot_delta(start, PERF.snapshot())["counters"])
        assert stats["handrolled"]["hit_rate"] == pytest.approx(0.75)
        assert (stats["lru.statstest"]["hits"],
                stats["lru.statstest"]["misses"]) == (1, 0)
        assert PERF.cache_stats()["lru.statstest"]["hits"] >= 1

    def test_reset_zeroes_live_tallies(self):
        """``PERF.reset()`` restarts a named cache's counters; the cache
        keeps its working set and its own lifetime tallies."""
        from repro.perf import PERF

        d = LruDict(max_entries=4, name="resettest")
        d.put("k", 1)
        d.get_lru("k")
        PERF.reset()
        assert "lru.resettest.hits" not in PERF.snapshot()["counters"]
        assert d.get_lru("k") == 1
        assert PERF.get("lru.resettest.hits") == 1
        assert (d.hits, d.misses) == (2, 0)

    def test_add_time_accumulates(self):
        reg = PerfRegistry()
        reg.add_time("sa.delta_eval", 0.5, calls=10)
        reg.add_time("sa.delta_eval", 0.25, calls=5)
        assert reg.timer_seconds("sa.delta_eval") == pytest.approx(0.75)
        assert reg.timer_calls("sa.delta_eval") == 15

    def test_sa_run_reports_delta_eval_timer(self):
        from repro.perf import PERF

        graph = chain_graph(2)
        arch = small_arch()
        groups = partition_graph(graph, arch, batch=2)
        lmss = [initial_lms(graph, g, arch) for g in groups]
        before = PERF.timer_calls("sa.delta_eval")
        ctl = SAController(
            graph, Evaluator(arch), list(lmss), 2,
            SASettings(iterations=15, seed=0),
        )
        ctl.run()
        assert PERF.timer_calls("sa.delta_eval") > before

    def test_reset_then_requery_reports_exactly_fresh_tallies(self):
        """Regression: a named LRU that lives across a ``reset()`` must
        snapshot as zeroed, then report only post-reset activity —
        stale tallies here would double-count every worker snapshot."""
        from repro.perf import PERF

        d = LruDict(max_entries=4, name="resetfresh")
        d.put("k", 1)
        d.get_lru("k")
        d.get_lru("k")
        d.get_lru("absent")
        assert (d.hits, d.misses) == (2, 1)

        PERF.reset()
        snap = PERF.snapshot()
        assert snap["counters"].get("lru.resetfresh.hits", 0) == 0
        assert snap["counters"].get("lru.resetfresh.misses", 0) == 0

        # Re-query: exactly the new accesses, nothing carried over.
        assert d.get_lru("k") == 1     # working set survived the reset
        d.get_lru("gone")
        snap = PERF.snapshot()
        assert snap["counters"]["lru.resetfresh.hits"] == 1
        assert snap["counters"]["lru.resetfresh.misses"] == 1
        stats = PERF.cache_stats()["lru.resetfresh"]
        assert (stats["hits"], stats["misses"]) == (1, 1)
        assert stats["hit_rate"] == pytest.approx(0.5)


class TestCompiledCacheCounts:
    """Every compiled cache's lookups reach the run's snapshot, from the
    per-candidate caches that die with their candidate too, in process
    and from pool workers."""

    CACHES = ("layers", "self", "pairs", "slices", "parts")

    @pytest.fixture
    def seen(self, monkeypatch):
        """Count every named lookup under ``seen.<name>.*`` by wrapping
        ``get_lru``; fork workers inherit the wrapper, and their task
        snapshots carry its counts home."""
        from repro.perf import PERF

        get_lru = LruDict.get_lru

        def counting(cache, key):
            value = get_lru(cache, key)
            if cache.name is not None:
                outcome = "hits" if value is not None else "misses"
                PERF.add(f"seen.{cache.name}.{outcome}")
            return value

        monkeypatch.setattr(LruDict, "get_lru", counting)

    @pytest.mark.parametrize("workers", [1, 2], ids=["in-process", "fork-2"])
    def test_snapshot_equals_every_lookup(self, seen, workers):
        from repro.cli.main import table1_candidates
        from repro.dse import DesignSpaceExplorer, Workload
        from repro.dse.pool import pool_start_method
        from repro.perf import PERF
        from repro.workloads.models import build

        if workers > 1 and pool_start_method() != "fork":
            pytest.skip("the counting wrapper reaches workers by fork")
        start = PERF.snapshot()
        with DesignSpaceExplorer(
            [Workload(build("MBV2"), batch=1)],
            sa_settings=SASettings(iterations=40),
            record_mappings=False,
        ) as explorer:
            explorer.explore(table1_candidates(72, False)[:6],
                             workers=workers)
        added = snapshot_delta(start, PERF.snapshot())["counters"]
        for cache in self.CACHES:
            for outcome in ("hits", "misses"):
                want = added[f"seen.compiled.{cache}.{outcome}"]
                assert want > 0, (cache, outcome)
                assert added[f"lru.compiled.{cache}.{outcome}"] == want, \
                    (cache, outcome)


class TestMergeOrderIndependence:
    """Property test: folding worker snapshots is a commutative,
    associative sum — shard scheduling order must never change totals."""

    NAMES = ["dse.candidates", "store.hits", "c.misses", "sa.iterations"]
    LABELS = ["sa.run", "dse.explore", "evaluator.warm.routes"]

    def _random_snapshots(self, rng, n):
        snaps = []
        for _ in range(n):
            counters = {
                name: rng.randint(0, 50)
                for name in self.NAMES if rng.random() < 0.8
            }
            timers = {
                label: {
                    "seconds": rng.uniform(0.0, 5.0),
                    "calls": rng.randint(1, 20),
                }
                for label in self.LABELS if rng.random() < 0.8
            }
            snaps.append({"counters": counters, "timers": timers})
        return snaps

    def _totals(self, reg):
        counters = {name: reg.get(name) for name in self.NAMES}
        timers = {
            label: (reg.timer_seconds(label), reg.timer_calls(label))
            for label in self.LABELS
        }
        return counters, timers

    def _assert_same(self, got, want):
        counters, timers = got
        want_counters, want_timers = want
        assert counters == want_counters
        for label in self.LABELS:
            assert timers[label][0] == pytest.approx(want_timers[label][0])
            assert timers[label][1] == want_timers[label][1]

    def test_shuffles_and_partitions_match_serial_sum(self):
        import random

        rng = random.Random(1234)
        snaps = self._random_snapshots(rng, 9)

        serial = PerfRegistry()
        for snap in snaps:
            serial.merge(snap)
        want = self._totals(serial)

        # Any permutation of arrivals sums identically.
        for _ in range(5):
            order = list(snaps)
            rng.shuffle(order)
            reg = PerfRegistry()
            for snap in order:
                reg.merge(snap)
            self._assert_same(self._totals(reg), want)

        # Hierarchical folding (workers -> shard registries -> parent),
        # with random partition boundaries, sums identically too.
        for _ in range(5):
            order = list(snaps)
            rng.shuffle(order)
            parent = PerfRegistry()
            i = 0
            while i < len(order):
                j = i + rng.randint(1, len(order) - i)
                shard = PerfRegistry()
                for snap in order[i:j]:
                    shard.merge(snap)
                part = shard.snapshot()
                parent.merge({
                    "counters": {
                        k: v for k, v in part["counters"].items()
                        if k in self.NAMES
                    },
                    "timers": part["timers"],
                })
                i = j
            self._assert_same(self._totals(parent), want)
