"""The one supervised dispatcher (``repro.dse.pool.run_tasks``).

``explore``, ``CampaignRunner.run`` and ``run_sweep`` all fan out
through it, so its rules hold for every kind of task:

* the campaign's chaos drills — a SIGKILLed worker, a hang past the
  deadline, a poison task that crashes every attempt — run straight
  through the dispatcher on candidate and on scenario tasks, and the
  results equal a clean in-process run;
* each worker runs one task at a time, so a crash is charged to the
  task that caused it alone — also when the next dispatch finds the
  worker dead first — and a dispatch interrupted while a task still
  runs leaves no doomed worker for the next dispatch;
* a finished ``wait()`` round is handed over whole before any error is
  raised (pinned with a deterministic fake pool);
* at the API, a crashed worker no longer breaks ``explore`` or a
  resumable sweep: the crash surfaces as ``WorkerCrashed`` naming the
  task, the pool recovers, and the sweep's other scenarios reach the
  resume store.
"""

import os
import signal
import time
from concurrent.futures import Future

import pytest

from repro.campaign import RetryPolicy, WorkerCrashed
from repro.core.sa import SASettings
from repro.dse import DesignSpaceExplorer, Workload
from repro.dse.explorer import evaluate_task
from repro.dse.pool import run_tasks
from repro.errors import ReproError, SearchError
from repro.frontend import Scenario, run_sweep
from repro.frontend.scenarios import _sweep_task
from repro.io.serialization import save_graph
from repro.perf import PERF
from repro.testing import parse_chaos

from test_campaign_faults import DEADLINE_S, small_candidates, tiny_graph

#: The campaign drills' policy: deadline far above a tiny task, far
#: below the injected 45 s hang.
POLICY = RetryPolicy(max_attempts=3, timeout_s=DEADLINE_S)


@pytest.fixture
def model_path(tmp_path):
    path = tmp_path / "tiny.json"
    save_graph(tiny_graph(), path)
    return str(path)


def make_explorer():
    return DesignSpaceExplorer(
        [Workload(tiny_graph(), batch=2)],
        sa_settings=SASettings(iterations=4, seed=11),
    )


def make_scenarios(model_path):
    return [Scenario(name=name, model=model_path, batch=batch, iters=4)
            for name, batch in (("a", 1), ("b", 2), ("c", 3), ("d", 4))]


class Recorder:
    """Collects a dispatch's outcomes, failures and events."""

    def __init__(self):
        self.results, self.failures, self.events = {}, {}, []

    def on_result(self, i, outcome, attempt, pid):
        self.results[i] = outcome

    def on_failure(self, i, error, attempts, cause):
        self.failures[i] = (type(error).__name__, attempts, cause)

    def on_event(self, event, **fields):
        self.events.append(event)

    def run(self, tasks, workers, **kwargs):
        run_tasks(tasks, workers, self.on_result,
                  on_failure=self.on_failure, on_event=self.on_event,
                  **kwargs)
        return self


def comparable(outcome):
    """Everything of an outcome but wall-clock fields."""
    if isinstance(outcome, tuple):  # a scenario's (summary, mapping)
        return outcome
    return (outcome.arch, outcome.score, outcome.energy, outcome.delay,
            outcome.per_workload, outcome.mappings)


@pytest.fixture(params=["candidate", "scenario"])
def kind(request, model_path):
    """(tasks, explorer) of one task kind; the explorer, if any, is
    closed with its pool at teardown."""
    if request.param == "candidate":
        explorer = make_explorer()
        tasks = [(i, evaluate_task, (arch,))
                 for i, arch in enumerate(small_candidates())]
        yield tasks, explorer
        explorer.close()
    else:
        tasks = [(i, _sweep_task, (sc, None))
                 for i, sc in enumerate(make_scenarios(model_path))]
        yield tasks, None


def drill(kind, spec):
    """A clean in-process dispatch, then a chaotic 2-worker one."""
    tasks, explorer = kind
    clean = Recorder().run(tasks, 1, context=explorer)
    assert sorted(clean.results) == list(range(len(tasks)))
    assert "worker_died" not in clean.events
    PERF.reset()
    with parse_chaos(spec):
        faulty = Recorder().run(tasks, 2, context=explorer, policy=POLICY)
    return clean, faulty


def assert_same_results(clean, faulty, indices):
    assert sorted(faulty.results) == list(indices)
    for i in indices:
        assert comparable(faulty.results[i]) == comparable(clean.results[i])


class TestDrills:
    def test_worker_sigkill_recovers(self, kind):
        clean, faulty = drill(kind, "crash:1")
        assert faulty.failures == {}
        assert_same_results(clean, faulty, clean.results)
        assert PERF.get("dse.pool.worker_deaths") >= 1
        assert {"worker_died", "pool_respawned"} <= set(faulty.events)

    def test_hang_past_deadline_times_out_and_retries(self, kind):
        clean, faulty = drill(kind, "hang:0:1:45")
        assert faulty.failures == {}
        assert_same_results(clean, faulty, clean.results)
        assert {"task_timeout", "task_retried",
                "pool_respawned"} <= set(faulty.events)

    def test_poison_task_is_finalized_and_the_rest_complete(self, kind):
        last = len(kind[0]) - 1
        clean, faulty = drill(kind, f"crash:{last}:9")  # every attempt
        assert faulty.failures == {last: ("WorkerCrashed", 3, "crash")}
        assert_same_results(clean, faulty, range(last))


def _quick_or_doomed(explorer, index):
    """Task 0 returns at once; task 1 SIGKILLs its worker 0.5 s in."""
    if index == 1:
        time.sleep(0.5)
        os.kill(os.getpid(), signal.SIGKILL)
    return index


def _nap(explorer, index):
    time.sleep(1.0)
    return index


def _await(path, timeout_s=30.0):
    deadline = time.monotonic() + timeout_s
    while not path.exists():
        assert time.monotonic() < deadline, f"{path} never appeared"
        time.sleep(0.01)


def _dies_on_go(context, index, marks):
    """Task 0's first run SIGKILLs its worker once ``marks/go``
    appears; every other run returns its index."""
    if index == 0 and not (marks / "killed").exists():
        _await(marks / "go")
        (marks / "killed").touch()
        os.kill(os.getpid(), signal.SIGKILL)
    return index


class TestOneTaskPerWorker:
    def test_crash_is_charged_to_its_own_task_alone(self):
        tasks = [(i, evaluate_task, (arch,))
                 for i, arch in enumerate(small_candidates())]
        with make_explorer() as explorer, parse_chaos("crash:1"):
            # Warm both workers, armed, on tasks the plan spares.
            Recorder().run([tasks[0], tasks[2]], 2, context=explorer)
            PERF.reset()
            rec = Recorder().run(tasks, 2, context=explorer, policy=POLICY)
        assert rec.failures == {}
        assert sorted(rec.results) == list(range(len(tasks)))
        assert PERF.get("dse.pool.worker_deaths") == 1
        assert PERF.get("dse.pool.dispatched") == len(tasks) + 1
        assert rec.events.count("worker_died") == 1

    def test_interrupted_dispatch_leaves_no_doomed_worker(self):
        def interrupt(i, outcome, attempt, pid):
            raise LookupError("stop")  # like a fail_after interrupt

        with make_explorer() as explorer:
            with pytest.raises(LookupError, match="stop"):
                run_tasks([(i, _quick_or_doomed, ()) for i in range(2)], 2,
                          interrupt, context=explorer)
            PERF.reset()
            rec = Recorder().run([(i, _nap, ()) for i in range(2)], 2,
                                 context=explorer)
        assert rec.results == {0: 0, 1: 1}
        assert PERF.get("dse.pool.worker_deaths") == 0
        assert "worker_died" not in rec.events

    def test_worker_dead_before_its_future_is_read(self, tmp_path):
        """Task 0's worker dies while task 1's result is handed over,
        so the next dispatch finds that worker dead before the
        dispatcher reads task 0's future."""

        class HoldsTheHandOver(Recorder):
            def on_result(self, i, outcome, attempt, pid):
                super().on_result(i, outcome, attempt, pid)
                if i == 1:
                    (tmp_path / "go").touch()
                    _await(tmp_path / "killed")
                    time.sleep(0.5)  # the executor sees the death

        PERF.reset()
        rec = HoldsTheHandOver().run(
            [(i, _dies_on_go, (tmp_path,)) for i in range(3)], 2,
            policy=POLICY,
        )
        assert rec.failures == {}
        assert rec.results == {0: 0, 1: 1, 2: 2}
        assert PERF.get("dse.pool.worker_deaths") == 1
        assert rec.events.count("worker_died") == 1


class _FakePool:
    """Completes every submitted task at once: the whole in-flight
    window lands in a single ``wait()`` round, deterministically."""

    workers = 2

    def __init__(self, outcomes):
        self.outcomes = outcomes

    def submit(self, task):
        fut = Future()
        outcome = self.outcomes[task[0]]
        if isinstance(outcome, Exception):
            fut.set_exception(outcome)
        else:
            fut.set_result((outcome, None, None))
        return fut


class _FakeExplorer:
    def __init__(self, outcomes):
        self._pool = _FakePool(outcomes)

    def pool(self, workers):
        return self._pool


def fake_run(outcomes, on_result, **kwargs):
    tasks = [(i, None, ()) for i in range(len(outcomes))]
    run_tasks(tasks, 2, on_result, context=_FakeExplorer(outcomes),
              **kwargs)


class TestRoundHandOver:
    def test_result_reaches_caller_before_a_round_mates_error(self):
        got = []
        with pytest.raises(RuntimeError, match="bug in task 1"):
            fake_run(["done", RuntimeError("bug in task 1")],
                     lambda i, out, attempt, pid: got.append((i, out)))
        assert got == [(0, "done")]

    def test_callback_error_is_raised_after_the_round(self):
        got = []

        def interrupt(i, out, attempt, pid):
            got.append(out)
            raise LookupError("stop")  # like a fail_after interrupt

        with pytest.raises(LookupError, match="stop"):
            fake_run(["a", "b", "never"], interrupt)
        assert sorted(got) == ["a", "b"]

    def test_first_failure_in_task_order_raised_after_every_outcome(self):
        got = []
        with pytest.raises(ReproError, match="candidate 1 failed: "
                           "SearchError: one") as exc:
            fake_run(["a", SearchError("one"), SearchError("two"), "d"],
                     lambda i, out, attempt, pid: got.append(out))
        assert isinstance(exc.value.__cause__, SearchError)
        assert sorted(got) == ["a", "d"]


class TestInProcess:
    def test_retries_run_inline_before_the_next_task(self):
        calls = []

        def flaky(explorer, index):
            calls.append(index)
            if index == 0 and calls.count(0) < 3:
                raise SearchError("transient")
            return index

        rec = Recorder().run([(0, flaky, ()), (1, flaky, ())], 1,
                             policy=RetryPolicy(max_attempts=3))
        assert calls == [0, 0, 0, 1]
        assert rec.results == {0: 0, 1: 1}
        assert rec.events == ["task_retried", "task_retried"]

    def test_no_pool_is_built(self):
        PERF.reset()
        rec = Recorder().run([(0, lambda explorer, index: "x", ())], 4)
        assert rec.results == {0: "x"}
        assert PERF.get("dse.pool.created") == 0


class TestContainmentAtTheApi:
    def test_explore_crash_raises_worker_crashed_and_pool_recovers(self):
        candidates = small_candidates()
        with make_explorer() as explorer:
            serial = explorer.explore(candidates[:3])
            with parse_chaos("crash:3"):
                with pytest.raises(WorkerCrashed, match="candidate 3"):
                    explorer.explore(candidates, workers=2)
            # Respawned workers keep the hook they were spawned with,
            # so the follow-up call stays off index 3.
            again = explorer.explore(candidates[:3], workers=2)
        assert [comparable(r) for r in again.results] == \
            [comparable(r) for r in serial.results]

    def test_sweep_crash_names_scenario_and_resume_serves_the_rest(
        self, tmp_path, model_path
    ):
        scenarios = make_scenarios(model_path)
        out = tmp_path / "sweep"
        with parse_chaos("crash:0"):
            with pytest.raises(WorkerCrashed, match="scenario 'a'"):
                run_sweep(scenarios, out_dir=out, workers=2, resume=True)
        PERF.reset()
        summaries = run_sweep(scenarios, out_dir=out, resume=True)
        assert PERF.get("sweep.store_hits") == len(scenarios) - 1
        assert PERF.get("sweep.evaluated") == 1
        assert [s["edp"] for s in summaries] == \
            [s["edp"] for s in run_sweep(scenarios)]
