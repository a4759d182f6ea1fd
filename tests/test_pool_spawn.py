"""PersistentEvalPool under the spawn start method (no fork anywhere).

The pool's hand-off must not depend on fork inheritance: the explorer
and any armed chaos hook ride the initializer arguments, pickled once
per worker, each worker compiles its own graph tables on first use,
and the reuse, fault-recovery and shutdown behaviour pinned for fork
pools holds identically.
"""

import gc
import multiprocessing as mp

import pytest

from repro.campaign import CampaignRunner, RetryPolicy
from repro.core.sa import SASettings
from repro.dse import DesignSpaceExplorer, Workload
from repro.perf import PERF
from repro.testing import parse_chaos

from test_campaign_faults import (
    N,
    events_named,
    make_spec,
    small_candidates,
    tiny_graph,
)
from test_dse_parallel import assert_workers_exit


@pytest.fixture
def spawn_method():
    """Force the spawn start method for one test, then restore."""
    old = mp.get_start_method(allow_none=True)
    mp.set_start_method("spawn", force=True)
    try:
        yield
    finally:
        mp.set_start_method(old or "fork", force=True)


class TestSpawnPool:
    def test_pool_reuse_and_identical_results(self, spawn_method):
        candidates = small_candidates()
        with DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=6, seed=11),
            record_mappings=False,
        ) as ex:
            serial = ex.explore(candidates)  # in-process reference
            PERF.reset()
            par1 = ex.explore(candidates, workers=2)
            par2 = ex.explore(candidates, workers=2)
            assert ex._pool.start_method == "spawn"
            assert PERF.get("dse.pool.created") == 1
        # Worker results match the in-process evaluation exactly.
        for rep in (par1, par2):
            assert [r.score for r in rep.results] == \
                [r.score for r in serial.results]

    def test_abandoned_explorer_stops_its_workers(self, spawn_method):
        """An explorer dropped without ``close()`` is collected with its
        pool, and each executor stops its spawned worker."""
        explorer = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=2, seed=11),
            record_mappings=False,
        )
        explorer.explore(small_candidates()[:2], workers=2)
        assert explorer._pool.start_method == "spawn"
        procs = [proc for ex in explorer._pool._executors
                 for proc in ex._processes.values()]
        assert len(procs) == 2
        del explorer
        gc.collect()
        assert_workers_exit(procs)

    def test_crash_recovery_under_spawn(self, spawn_method, tmp_path):
        PERF.reset()
        plan = parse_chaos("crash:1")  # SIGKILL candidate 1's 1st attempt
        with CampaignRunner(make_spec(), tmp_path / "faulty") as runner:
            report = runner.run(
                workers=2, policy=RetryPolicy(max_attempts=3), chaos=plan,
            )
        assert report.evaluated == N
        assert report.failed == 0
        assert report.quarantined == 0
        assert PERF.get("dse.pool.worker_deaths") >= 1
        assert events_named(tmp_path / "faulty", "camp", "pool_respawned")
