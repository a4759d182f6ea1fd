"""The persistent worker pool and the one supervised task dispatcher.

Every parallel entry point — ``DesignSpaceExplorer.explore``,
``CampaignRunner.run`` and ``run_sweep`` — hands its work to
:func:`run_tasks`, which runs it in-process or on a
:class:`PersistentEvalPool` under one set of supervision rules.

The pool amortizes set-up across its lifetime: workers start once and
are reused for every dispatch (the explorer caches its pool and the
campaign runner shares it; a sweep builds one per ``run_sweep`` call).

Workers get their state one way under every start method (the pool
honors ``multiprocessing.set_start_method``): the executor's
initializer takes ``(context, hook)``, where the context is the object
every task runs against — an explorer, or a sweep's
:class:`~repro.core.store.CoreStore`.  Fork workers inherit those
arguments with the parent's memory (CPython does not pickle process
arguments under fork), and with them the graph tables
``explorer.prepare()`` compiled before the first worker started and
whatever the context's core store already holds; spawn workers (the
macOS/Windows default) unpickle them once each — a core store pickles
empty — and compile their own tables on first use.  Telemetry comes
back one way too: each task returns its outcome with the worker's
``PERF`` snapshot and its spans, both cleared before the task, and
:func:`run_tasks` merges them into the parent's ``PERF`` and
``TRACER``.

The pool is also *supervisable*: each worker is its own single-worker
``ProcessPoolExecutor`` running one task at a time, so a SIGKILL'd or
hung worker holds up only its own task, and
:meth:`PersistentEvalPool.respawn` replaces that worker alone —
force-killing it if it still runs, which is the only way to clear a
hung task — with a fresh one bound to the same context.

Nothing global holds a pool's context: an explorer dropped without
``close()`` forms a collectable cycle with its pool's executors
(through the initializer arguments), and CPython's executor shuts its
worker down when the cycle is collected.

The context must be treated as immutable once a pool exists — workers
saw its state at fork/spawn time (a core store only grows per process).
"""

from __future__ import annotations

import multiprocessing as mp
import os
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    wait,
)
from concurrent.futures.process import BrokenProcessPool

from repro.dse import explorer as explorer_mod
from repro.errors import ReproError
from repro.obs.trace import TRACER
from repro.perf import PERF

#: Worker-process state: the pool's task context (``None`` for a pool
#: built without one), adopted once by the initializer.
_WORKER_CONTEXT = None

#: Longest single sleep or ``wait`` of the dispatcher; a longer
#: deadline or backoff just takes several.  Waits past
#: ``threading.TIMEOUT_MAX`` raise ``OverflowError``, and ``time.sleep``
#: (which adds the monotonic clock) already fails at that value.
_MAX_WAIT_S = 86400.0


def _sleep(seconds: float) -> None:
    """``time.sleep`` for any finite span, in pieces of at most
    ``_MAX_WAIT_S``."""
    while seconds > 0:
        step = min(seconds, _MAX_WAIT_S)
        time.sleep(step)
        seconds -= step


def _init_worker(context, hook) -> None:
    """Adopt the pool's state as this worker's task context.

    ``context`` (``None`` for a pool built without one) is the
    parent's object under fork and an unpickled copy under spawn;
    ``hook`` is the chaos evaluation hook armed in the parent at
    executor creation (``None`` in production).
    """
    global _WORKER_CONTEXT
    _WORKER_CONTEXT = context
    if hook is not None:
        explorer_mod._EVAL_HOOK = hook


def _run_in_worker(task):
    """The one worker entry: run an ``(index, fn, args, attempt)`` task.

    Fires the chaos hook (when armed) with ``(index, attempt)``, resets
    the process-local ``PERF`` registry and clears ``TRACER`` so the
    task ships only its own counters and spans, and returns
    ``(fn(context, index, *args), perf_snapshot, spans)``.  It opens no
    span of its own, so a task's spans stay roots in the worker.
    """
    index, fn, args, attempt = task
    if explorer_mod._EVAL_HOOK is not None:
        explorer_mod._EVAL_HOOK(index, attempt)
    PERF.reset()
    TRACER.clear()
    outcome = fn(_WORKER_CONTEXT, index, *args)
    return outcome, PERF.snapshot(), TRACER.snapshot()


def _kill_workers(executor: ProcessPoolExecutor) -> None:
    """SIGKILL an executor's live worker processes (hung tasks cannot
    be cancelled any other way)."""
    processes = getattr(executor, "_processes", None) or {}
    for proc in list(processes.values()):
        if proc.is_alive():
            try:
                proc.kill()
            except (OSError, ValueError):  # pragma: no cover - racing exit
                pass


def pool_start_method() -> str:
    """The start method pools use: whatever the application configured
    via ``multiprocessing.set_start_method``, else ``fork`` where
    available (cheapest handoff), else the platform default."""
    method = mp.get_start_method(allow_none=True)
    if method is not None:
        return method
    if "fork" in mp.get_all_start_methods():
        return "fork"
    return mp.get_start_method()  # pragma: no cover - non-POSIX


class PersistentEvalPool:
    """A long-lived process pool, bound to one task context or to none."""

    def __init__(self, context, workers: int):
        if workers < 1:
            raise ValueError("pool needs at least one worker")
        self.workers = workers
        self._context = context
        self.start_method = pool_start_method()
        self._executors = [self._spawn_executor() for _ in range(workers)]
        # Each worker's last task; a worker is idle once it is done.
        self._running: list[Future | None] = [None] * workers
        PERF.add("dse.pool.created")

    def _spawn_executor(self) -> ProcessPoolExecutor:
        # The chaos hook is captured here so a respawned worker re-arms
        # it — under fork it would inherit it anyway, under spawn it
        # must ride the initargs.
        return ProcessPoolExecutor(
            max_workers=1,
            mp_context=mp.get_context(self.start_method),
            initializer=_init_worker,
            initargs=(self._context, explorer_mod._EVAL_HOOK),
        )

    def _replace(self, slot: int) -> None:
        executor = self._executors[slot]
        _kill_workers(executor)
        executor.shutdown(wait=False, cancel_futures=True)
        self._executors[slot] = self._spawn_executor()
        self._running[slot] = None
        PERF.add("dse.pool.respawned")

    def respawn(self, fut: Future) -> None:
        """Replace the worker that ran ``fut`` (dead, hung, or running
        a task nobody waits for); ``fut`` is abandoned.  A dead worker
        that :meth:`submit` has replaced already is left as it is."""
        if fut in self._running:
            self._replace(self._running.index(fut))

    def submit(self, task) -> Future:
        """Dispatch one ``(index, fn, args, attempt)`` task to an idle
        worker's entry; the future yields ``(outcome, perf_snapshot,
        spans)``."""
        PERF.add("dse.pool.dispatched")
        slot = next(i for i, fut in enumerate(self._running)
                    if fut is None or fut.done())
        try:
            fut = self._executors[slot].submit(_run_in_worker, task)
        except BrokenProcessPool:
            # The worker died while idle (nobody's fault), or under a
            # task whose future the dispatcher has not read yet (it is
            # charged then): replace it and dispatch again.
            self._replace(slot)
            fut = self._executors[slot].submit(_run_in_worker, task)
        self._running[slot] = fut
        return fut

    def close(self) -> None:
        """Tell every worker to stop, then return once each has exited
        and been reaped (by its executor's manager thread)."""
        # ``shutdown`` forgets the manager thread, so take them first.
        managers = [ex._executor_manager_thread for ex in self._executors]
        for executor in self._executors:
            executor.shutdown(wait=False, cancel_futures=True)
        for thread in managers:
            if thread is not None:
                thread.join()


def run_tasks(tasks, workers: int, on_result, *, on_failure=None,
              on_event=None, policy=None, context=None, keys=None,
              label="candidate {}".format) -> None:
    """Run ``(index, fn, args)`` tasks to an outcome each, supervised.

    A task runs as ``fn(context, index, *args)``: in-process — no
    fork, no ``PERF`` reset — when one worker suffices (``workers`` is
    1, the policy has no deadline and no chaos hook is armed);
    otherwise on the context's persistent pool when it keeps one (an
    explorer's ``pool(workers)``), or on a private pool bound to the
    context (a sweep's core store, or ``None``) and closed on return.

    Every task that finishes is handed over as ``on_result(index,
    outcome, attempt, pid)``, after its worker's ``PERF`` snapshot and
    spans are merged into this process's ``PERF`` and ``TRACER``.
    Every task that fails for good goes to ``on_failure(index, error,
    attempts, cause)``; without it, the first failure in task
    order is raised once every task has reached an outcome — a crash as
    ``WorkerCrashed``, a timeout as ``CandidateTimeout``, an evaluation
    error as a ``ReproError`` naming the task (``label(index)``).
    ``on_event(name, **fields)`` sees the supervision events
    ``task_retried``, ``task_timeout``, ``worker_died`` and
    ``pool_respawned``.

    The rules (``policy`` defaults to ``RetryPolicy()``):

    * at most ``workers`` tasks are in flight, one per worker, so a
      worker that dies is charged to the one task it ran (a crash),
      and so is a deadline that expires (a timeout); only that worker
      is respawned — killed first if it hangs — and the other tasks
      run on;
    * a charged fault (crash, timeout or ``ReproError``) is retried
      after ``policy.delay_s(keys[index], attempt)`` — in-process by
      sleeping it inline, like a serial loop — until the task has been
      charged ``policy.max_attempts`` times;
    * any other exception from a task — a bug, not a fault — is raised,
      and so is an exception from a callback, but only once the other
      tasks of the same ``wait()`` round have been handed over.  The
      workers of tasks still running are then replaced, uncharged and
      without an event, so a pool that outlives the call has every
      worker idle.

    ``workers`` below 1 raises ``ValueError``: no task could ever be
    admitted to the window.
    """
    from repro.campaign.faults import (
        CAUSE_CRASH,
        CAUSE_ERROR,
        CAUSE_TIMEOUT,
        CandidateTimeout,
        RetryPolicy,
        WorkerCrashed,
    )

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if not tasks:
        return
    policy = policy or RetryPolicy()
    emit = on_event or (lambda event, **fields: None)
    workers = min(workers, len(tasks))
    pool = None
    owned_pool = getattr(context, "pool", None)
    if (workers > 1 or policy.needs_supervision
            or explorer_mod._EVAL_HOOK is not None):
        pool = (PersistentEvalPool(context, workers) if owned_pool is None
                else owned_pool(workers))
    # Charged faults per task index; the dispatch attempt number is
    # faults + 1, so injected chaos faults key on a deterministic
    # attempt sequence.
    faults: dict[int, int] = {}
    failures: dict[int, tuple[Exception, str]] = {}
    pending = deque(tasks)
    delayed: list[tuple[float, tuple]] = []
    inflight: dict[Future, tuple] = {}

    def respawn(fut) -> None:
        pool.respawn(fut)
        emit("pool_respawned", workers=pool.workers)

    def dispatch(task) -> None:
        index, fn, args = task
        attempt = faults.get(index, 0) + 1
        if pool is None:
            fut = Future()
            try:
                fut.set_result((fn(context, index, *args), None, None))
            except Exception as exc:  # noqa: BLE001 - as from a worker
                fut.set_exception(exc)
        else:
            fut = pool.submit((index, fn, args, attempt))
        deadline = (None if policy.timeout_s is None
                    else time.monotonic() + policy.timeout_s)
        inflight[fut] = (task, attempt, deadline)

    def charge(task, cause: str, error=None) -> None:
        """Charge one fault: re-queue the task, or finalize it."""
        i = task[0]
        faults[i] = n = faults.get(i, 0) + 1
        if n >= policy.max_attempts:
            if cause == CAUSE_CRASH:
                error = WorkerCrashed(
                    f"{label(i)} killed its worker {n} time(s)"
                )
            elif cause == CAUSE_TIMEOUT:
                error = CandidateTimeout(
                    f"{label(i)} exceeded the {policy.timeout_s}s deadline "
                    f"{n} time(s)"
                )
            if on_failure is None:
                failures[i] = (error, cause)
            else:
                on_failure(i, error, n, cause)
            return
        delay = policy.delay_s(label(i) if keys is None else keys[i],
                               n + 1)
        emit("task_retried", index=i, cause=cause, attempt=n + 1,
             delay_s=delay)
        if delay > 0 and pool is not None:
            delayed.append((time.monotonic() + delay, task))
            return
        _sleep(delay)
        pending.appendleft(task)

    def settle(fut, task, attempt: int) -> None:
        """Hand a finished task over, or charge its fault."""
        try:
            outcome, snapshot, spans = fut.result()
        except BrokenProcessPool:
            # The task's own worker died under it.
            PERF.add("dse.pool.worker_deaths")
            emit("worker_died", index=task[0])
            respawn(fut)
            charge(task, CAUSE_CRASH)
            return
        except ReproError as exc:
            charge(task, CAUSE_ERROR, exc)
            return
        pid = os.getpid()
        if snapshot is not None:
            PERF.merge(snapshot)
            TRACER.merge(spans)
            pid = snapshot["pid"]
        on_result(task[0], outcome, attempt, pid)

    try:
        while pending or delayed or inflight:
            now = time.monotonic()
            # Promote backoff-expired tasks.
            still = []
            for ready_at, task in delayed:
                if ready_at <= now:
                    pending.append(task)
                else:
                    still.append((ready_at, task))
            delayed[:] = still

            # Dispatch: fill the in-flight window up to the worker count.
            while pending and len(inflight) < workers:
                dispatch(pending.popleft())

            if not inflight:
                if delayed:
                    _sleep(min(r for r, _ in delayed) - time.monotonic())
                continue

            # Wait bounded by the nearest deadline or backoff expiry.
            bounds = [d for _, _, d in inflight.values() if d is not None]
            bounds += [r for r, _ in delayed]
            timeout = (min(_MAX_WAIT_S,
                           max(0.05, min(bounds) - time.monotonic()))
                       if bounds else None)
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)

            # Hand the whole finished round over before raising anything
            # — results that already exist must never be thrown away.
            errors = []
            for fut in done:
                task, attempt, _ = inflight.pop(fut)
                try:
                    settle(fut, task, attempt)
                except Exception as exc:  # noqa: BLE001 - raised below
                    errors.append(exc)

            if policy.timeout_s is not None:
                now = time.monotonic()
                for fut, (task, attempt, deadline) in list(inflight.items()):
                    if deadline <= now:
                        # The hung worker only dies with the respawn.
                        del inflight[fut]
                        emit("task_timeout", index=task[0], attempt=attempt,
                             timeout_s=policy.timeout_s)
                        respawn(fut)
                        charge(task, CAUSE_TIMEOUT)
            if errors:
                # Raised with the list emptied: a list holding the error
                # would tie its traceback, and every frame on it (the
                # caller's runner and explorer among them), into a cycle
                # only the cyclic GC frees.
                try:
                    raise errors[0]
                finally:
                    errors.clear()
    finally:
        if pool is not None:
            # An interrupted dispatch (a callback error, Ctrl-C) is no
            # worker's fault, but a pool that outlives it must not keep
            # running tasks nobody waits for.
            for fut in inflight:
                if not fut.done():
                    pool.respawn(fut)
            if owned_pool is None:
                pool.close()

    if failures:
        i = min(failures)
        error, cause = failures[i]
        if cause != CAUSE_ERROR:
            raise error
        raise ReproError(
            f"{label(i)} failed: {type(error).__name__}: {error}"
        ) from error
