"""Serial vs. parallel DSE equivalence (the ``workers=N`` driver).

The contract: for any worker count, ``explore`` returns the same
candidates in the same order with bit-identical scores, energies and
delays, and the same winning architecture — parallelism only changes
wall-clock time.
"""

from multiprocessing.connection import wait

import pytest

from repro.core.sa import SASettings
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
)
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


def tiny_graph(n=3):
    g = DNNGraph("tiny")
    prev = None
    for i in range(n):
        g.add_layer(
            Layer(f"l{i}", LayerType.CONV, out_h=8, out_w=8, out_k=32,
                  in_c=3 if prev is None else 32, kernel_r=3, kernel_s=3,
                  pad_h=1, pad_w=1),
            inputs=[prev] if prev else None,
        )
        prev = f"l{i}"
    return g


def small_candidates():
    grid = DseGrid(
        tops=8, cuts=(1, 2), dram_bw_per_tops=(1.0,), noc_bw_gbps=(32,),
        d2d_ratio=(0.5,), glb_kb=(512, 1024), macs_per_core=(1024,),
    )
    return enumerate_candidates(grid)


def make_explorer(seed_stride=0, iterations=8):
    return DesignSpaceExplorer(
        [Workload(tiny_graph(), batch=2)],
        sa_settings=SASettings(iterations=iterations, seed=11),
        seed_stride=seed_stride,
    )


def assert_workers_exit(procs, timeout=10):
    """Join each worker process, then check that every one has exited.

    The executor's own shutdown thread joins the same processes, and
    whichever thread reaps a worker first leaves the other's
    ``is_alive()`` reading a stale ``True``; a worker's sentinel is
    readable once it is gone, whoever reaped it.
    """
    for proc in procs:
        proc.join(timeout=timeout)
    assert len(wait([proc.sentinel for proc in procs], timeout=0)) == \
        len(procs)


def assert_reports_identical(a, b):
    assert [r.score for r in a.results] == [r.score for r in b.results]
    assert [r.energy for r in a.results] == [r.energy for r in b.results]
    assert [r.delay for r in a.results] == [r.delay for r in b.results]
    assert [r.arch for r in a.results] == [r.arch for r in b.results]
    assert a.best.arch == b.best.arch
    assert a.best.score == b.best.score


class TestSerialParallelEquivalence:
    def test_workers_4_matches_serial(self):
        candidates = small_candidates()
        explorer = make_explorer()
        serial = explorer.explore(candidates, workers=1)
        parallel = explorer.explore(candidates, workers=4)
        assert_reports_identical(serial, parallel)

    def test_seed_stride_is_order_independent(self):
        candidates = small_candidates()
        explorer = make_explorer(seed_stride=101)
        serial = explorer.explore(candidates, workers=1)
        parallel = explorer.explore(candidates, workers=4)
        assert_reports_identical(serial, parallel)

    def test_more_workers_than_candidates(self):
        candidates = small_candidates()[:2]
        explorer = make_explorer()
        serial = explorer.explore(candidates, workers=1)
        parallel = explorer.explore(candidates, workers=8)
        assert_reports_identical(serial, parallel)

    def test_workers_none_uses_all_cpus(self):
        candidates = small_candidates()[:2]
        explorer = make_explorer(iterations=2)
        report = explorer.explore(candidates, workers=None)
        assert len(report.results) == len(candidates)

    def test_seed_stride_changes_search_but_not_determinism(self):
        candidates = small_candidates()
        strided = make_explorer(seed_stride=101).explore(candidates)
        strided_again = make_explorer(seed_stride=101).explore(candidates)
        assert_reports_identical(strided, strided_again)

    def test_empty_candidates_rejected(self):
        with pytest.raises(ValueError):
            make_explorer().explore([], workers=4)


class TestPersistentPool:
    def test_pool_reused_across_explores(self):
        from repro.perf import PERF

        candidates = small_candidates()
        explorer = make_explorer(iterations=4)
        created0 = PERF.get("dse.pool.created")
        serial = explorer.explore(candidates, workers=1)
        first = explorer.explore(candidates, workers=2)
        second = explorer.explore(candidates, workers=2)
        explorer.close()
        assert_reports_identical(serial, first)
        assert_reports_identical(serial, second)
        # One pool served both parallel explorations.
        assert PERF.get("dse.pool.created") == created0 + 1

    def test_different_worker_count_recreates_pool(self):
        from repro.perf import PERF

        candidates = small_candidates()
        explorer = make_explorer(iterations=2)
        created0 = PERF.get("dse.pool.created")
        explorer.explore(candidates, workers=2)
        explorer.explore(candidates, workers=3)
        explorer.close()
        assert PERF.get("dse.pool.created") == created0 + 2

    def test_close_is_idempotent_and_context_manager(self):
        candidates = small_candidates()[:2]
        with make_explorer(iterations=2) as explorer:
            report = explorer.explore(candidates, workers=2)
            assert len(report.results) == 2
            explorer.close()
            explorer.close()

    def test_abandoned_explorer_stops_its_workers(self):
        """An explorer dropped without ``close()`` is collected with its
        pool, and the executor stops its forked workers."""
        import gc

        explorer = make_explorer(iterations=2)
        explorer.explore(small_candidates()[:2], workers=2)
        assert explorer._pool.start_method == "fork"
        procs = list(explorer._pool._pool._processes.values())
        assert len(procs) == 2
        del explorer
        gc.collect()
        assert_workers_exit(procs)

    def test_explorer_picklable_with_live_pool(self):
        """Worker shipping must not try to pickle the pool itself."""
        import pickle

        explorer = make_explorer(iterations=2)
        explorer.explore(small_candidates()[:2], workers=2)
        clone = pickle.loads(pickle.dumps(explorer))
        assert clone._pool is None
        explorer.close()

    def test_prepare_compiles_workload_tables(self):
        from repro.compiled.graph import _COMPILED

        explorer = make_explorer()
        explorer.prepare()
        for wl in explorer.workloads:
            assert wl.graph in _COMPILED
