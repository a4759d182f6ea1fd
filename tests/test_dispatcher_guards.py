"""Worker counts below one are refused, never spun on; huge waits
are taken in pieces.

``run_tasks`` admits a task while fewer than ``workers`` are in flight,
so a count below one would admit none and loop forever.  The
dispatcher and ``CampaignRunner.run`` refuse such counts up front
(``None`` still means all CPUs), which covers ``explore`` and
``run_sweep`` too; the ``--workers`` flags of ``dse``, ``sweep`` and
``campaign run`` take non-negative counts (``0`` means all CPUs).
``CampaignRunner.run`` likewise refuses a ``fail_after`` below one
before it evaluates anything.  A finite deadline or backoff past what
the platform's ``wait`` and ``time.sleep`` accept no longer overflows
them.

Every call runs under a ``SIGALRM`` deadline, so a regression fails
its test instead of hanging the suite.
"""

import signal
import threading
from contextlib import contextmanager

import pytest

from repro.campaign import CampaignRunner, RetryPolicy
from repro.cli.main import build_parser
from repro.dse import pool as pool_mod
from repro.dse.pool import run_tasks
from repro.errors import ReproError
from repro.frontend import Scenario, run_sweep
from repro.io.serialization import save_graph

from test_campaign_faults import make_spec, small_candidates, tiny_graph
from test_dispatcher import make_explorer

#: Far above the guard (it raises before any task runs), far below a
#: suite timeout.
DEADLINE_S = 10


@contextmanager
def deadline(seconds=DEADLINE_S):
    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def never_run(explorer, index):
    raise AssertionError(f"task {index} ran")


@pytest.mark.parametrize("workers", [0, -1])
def test_run_tasks_refuses_workers_below_one(workers):
    with deadline(), pytest.raises(ValueError, match="workers"):
        run_tasks([(0, never_run, ())], workers, never_run)


def test_explore_refuses_zero_workers():
    with make_explorer() as explorer, deadline(), \
            pytest.raises(ValueError, match="workers"):
        explorer.explore(small_candidates()[:1], workers=0)


def test_run_sweep_refuses_zero_workers(tmp_path):
    path = tmp_path / "tiny.json"
    save_graph(tiny_graph(), path)
    scenarios = [Scenario(name="a", model=str(path), batch=1, iters=4)]
    with deadline(), pytest.raises(ValueError, match="workers"):
        run_sweep(scenarios, out_dir=tmp_path / "sweep", workers=0)


@pytest.mark.parametrize("workers", [0, -1])
def test_campaign_run_refuses_workers_below_one(tmp_path, workers):
    with CampaignRunner(make_spec(), tmp_path) as runner, deadline(), \
            pytest.raises(ValueError, match="workers"):
        runner.run(workers=workers)


@pytest.mark.parametrize("fail_after", [0, -2])
def test_campaign_run_refuses_fail_after_below_one(tmp_path, fail_after):
    """``fail_after`` below 1 used to interrupt after the first fresh
    evaluation instead of being refused before any."""
    with CampaignRunner(make_spec(), tmp_path) as runner, deadline():
        with pytest.raises(ValueError, match="fail_after"):
            runner.run(workers=1, fail_after=fail_after)
        assert len(runner.pending()) == len(small_candidates())


COMMANDS = (["dse"], ["sweep"], ["campaign", "run", "--name", "x"])


@pytest.mark.parametrize("argv", COMMANDS)
def test_cli_refuses_negative_workers(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv + ["--workers", "-1"])
    assert exc.value.code == 2
    assert "--workers" in capsys.readouterr().err
    # 0 still parses: the commands read it as "all CPUs".
    assert build_parser().parse_args(argv + ["--workers", "0"]).workers == 0


def echo_index(explorer, index):
    return index


def test_huge_deadline_on_a_pool_completes():
    """A 1e10 s deadline used to overflow the pool's ``wait``."""
    done = {}
    with deadline():
        run_tasks([(0, echo_index, ())], 1,
                  lambda i, outcome, attempt, pid: done.update({i: outcome}),
                  policy=RetryPolicy(timeout_s=1e10))
    assert done == {0: 0}


def test_huge_in_process_backoff_sleeps_in_pieces(monkeypatch):
    """A 1e10 s backoff used to reach ``time.sleep`` in one call, which
    overflows; it is now slept in pieces that add up to the delay."""
    slept = []
    monkeypatch.setattr(pool_mod.time, "sleep", slept.append)
    calls = []

    def fail_once(explorer, index):
        calls.append(index)
        if len(calls) == 1:
            raise ReproError("transient")
        return index

    policy = RetryPolicy(max_attempts=2, backoff_s=1e10)
    done = {}
    with deadline():
        run_tasks([(0, fail_once, ())], 1,
                  lambda i, outcome, attempt, pid: done.update({i: outcome}),
                  policy=policy)
    assert done == {0: 0} and calls == [0, 0]
    assert max(slept) <= threading.TIMEOUT_MAX
    assert sum(slept) == pytest.approx(policy.delay_s("candidate 0", 2))
