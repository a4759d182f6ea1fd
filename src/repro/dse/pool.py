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

The pool is also *supervisable*: a SIGKILL'd or hung worker breaks a
``ProcessPoolExecutor`` permanently (every outstanding future raises
``BrokenProcessPool`` and the executor refuses new work), so
:meth:`PersistentEvalPool.respawn` tears the broken executor down —
force-killing any still-running workers, which is the only way to
clear a hung task — and builds a fresh one bound to the same context.

Nothing global holds a pool's context: an explorer dropped without
``close()`` forms a collectable cycle with its pool's executor (through
the initializer arguments), and CPython's executor shuts its workers
down when the cycle is collected.

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
        self._pool = self._spawn_executor()
        PERF.add("dse.pool.created")

    def _spawn_executor(self) -> ProcessPoolExecutor:
        # The chaos hook is captured here so a respawned executor's
        # workers re-arm it — under fork they would inherit it anyway,
        # under spawn it must ride the initargs.
        return ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=mp.get_context(self.start_method),
            initializer=_init_worker,
            initargs=(self._context, explorer_mod._EVAL_HOOK),
        )

    def respawn(self) -> None:
        """Replace a broken (or hung) executor with a fresh one.

        Outstanding futures of the old executor are abandoned: a broken
        executor has already failed them with ``BrokenProcessPool``,
        and a hung worker only dies by force — the dispatcher decides
        which of its tasks get re-dispatched.
        """
        _kill_workers(self._pool)
        self._pool.shutdown(wait=False, cancel_futures=True)
        self._pool = self._spawn_executor()
        PERF.add("dse.pool.respawned")

    def submit(self, task) -> Future:
        """Dispatch one ``(index, fn, args, attempt)`` task to the
        worker entry; the future yields ``(outcome, perf_snapshot,
        spans)``."""
        PERF.add("dse.pool.dispatched")
        return self._pool.submit(_run_in_worker, task)

    def close(self) -> None:
        self._pool.shutdown(wait=True, cancel_futures=True)


def run_tasks(tasks, workers: int, on_result, *, on_failure=None,
              on_event=None, policy=None, context=None,
              force_pool: bool = False, keys=None,
              label="candidate {}".format) -> None:
    """Run ``(index, fn, args)`` tasks to an outcome each, supervised.

    A task runs as ``fn(context, index, *args)``: in-process — no
    fork, no ``PERF`` reset — when one worker suffices (``workers`` is
    1, the policy has no deadline, no chaos hook is armed and
    ``force_pool`` is off); otherwise on the context's persistent pool
    when it keeps one (an explorer's ``pool(workers)``), or on a
    private pool bound to the context (a sweep's core store, or
    ``None``) and closed on return.

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

    * at most ``workers`` tasks are in flight, so a worker death has a
      bounded casualty list;
    * a break with exactly *one* task in flight attributes the crash to
      it; with several, every casualty is re-dispatched solo (a
      *probe*) — the next crash identifies the culprit, and innocents
      are never charged;
    * an attempt past its deadline is charged a timeout (the respawn
      kills its hung worker); the other in-flight tasks re-queue as
      collateral, uncharged;
    * a charged fault (crash, timeout or ``ReproError``) is retried
      after ``policy.delay_s(keys[index], attempt)`` — in-process by
      sleeping it inline, like a serial loop — until the task has been
      charged ``policy.max_attempts`` times;
    * any other exception from a task — a bug, not a fault — is raised,
      and so is an exception from a callback, but only once the other
      tasks of the same ``wait()`` round have been handed over.

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
    if (workers > 1 or force_pool or policy.needs_supervision
            or explorer_mod._EVAL_HOOK is not None):
        pool = (PersistentEvalPool(context, workers) if owned_pool is None
                else owned_pool(workers))
    # Charged faults per task index; the dispatch attempt number is
    # faults + 1, so injected chaos faults key on a deterministic
    # attempt sequence even across collateral re-dispatches (which
    # charge no fault).
    faults: dict[int, int] = {}
    failures: dict[int, tuple[Exception, str]] = {}
    pending = deque(tasks)
    probes: deque = deque()
    delayed: list[tuple[float, tuple, bool]] = []
    inflight: dict[Future, tuple] = {}

    def respawn() -> None:
        pool.respawn()
        emit("pool_respawned", workers=pool.workers)

    def dispatch(task, probe: bool) -> None:
        index, fn, args = task
        attempt = faults.get(index, 0) + 1
        if pool is None:
            fut = Future()
            try:
                fut.set_result((fn(context, index, *args), None, None))
            except Exception as exc:  # noqa: BLE001 - as from a worker
                fut.set_exception(exc)
        else:
            try:
                fut = pool.submit((index, fn, args, attempt))
            except BrokenProcessPool:
                # A worker died while the executor sat idle (detected
                # at submit, not through a future).  Nobody's fault:
                # respawn and dispatch again.
                respawn()
                fut = pool.submit((index, fn, args, attempt))
        deadline = (None if policy.timeout_s is None
                    else time.monotonic() + policy.timeout_s)
        inflight[fut] = (task, attempt, deadline, probe)

    def charge(task, probe: bool, cause: str, error=None) -> None:
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
            delayed.append((time.monotonic() + delay, task, probe))
            return
        _sleep(delay)
        if probe:
            probes.append(task)
        else:
            pending.appendleft(task)

    def settle(fut, task, attempt: int, probe: bool) -> None:
        """Hand a finished task over, or charge its evaluation error."""
        try:
            outcome, snapshot, spans = fut.result()
        except ReproError as exc:
            charge(task, probe, CAUSE_ERROR, exc)
            return
        pid = os.getpid()
        if snapshot is not None:
            PERF.merge(snapshot)
            TRACER.merge(spans)
            pid = snapshot["pid"]
        on_result(task[0], outcome, attempt, pid)

    try:
        while pending or probes or delayed or inflight:
            now = time.monotonic()
            # Promote backoff-expired tasks.
            still = []
            for ready_at, task, probe in delayed:
                if ready_at <= now:
                    (probes if probe else pending).append(task)
                else:
                    still.append((ready_at, task, probe))
            delayed[:] = still

            # Dispatch: probe tasks run strictly solo; otherwise fill
            # the in-flight window up to the worker count.
            if probes:
                if not inflight:
                    dispatch(probes.popleft(), probe=True)
            else:
                while pending and len(inflight) < workers:
                    dispatch(pending.popleft(), probe=False)

            if not inflight:
                if delayed:
                    _sleep(min(r for r, _, _ in delayed) - time.monotonic())
                continue

            # Wait bounded by the nearest deadline or backoff expiry.
            bounds = [d for _, _, d, _ in inflight.values()
                      if d is not None]
            bounds += [r for r, _, _ in delayed]
            timeout = (min(_MAX_WAIT_S,
                           max(0.05, min(bounds) - time.monotonic()))
                       if bounds else None)
            done, _ = wait(inflight, timeout=timeout,
                           return_when=FIRST_COMPLETED)

            # Hand the whole finished round over before raising anything
            # — results that already exist must never be thrown away.
            casualties, errors = [], []
            for fut in done:
                task, attempt, _, probe = inflight.pop(fut)
                try:
                    settle(fut, task, attempt, probe)
                except BrokenProcessPool:
                    casualties.append((task, probe))
                except Exception as exc:  # noqa: BLE001 - raised below
                    errors.append(exc)

            if casualties:
                # Every other in-flight future is broken too.
                casualties += [(t, p) for t, _, _, p in inflight.values()]
                inflight.clear()
                PERF.add("dse.pool.worker_deaths")
                emit("worker_died",
                     casualties=[task[0] for task, _ in casualties],
                     probing=len(casualties) > 1)
                if len(casualties) == 1:
                    charge(casualties[0][0], True, CAUSE_CRASH)
                else:
                    # Ambiguous: any of them may be the poison one.  No
                    # fault is charged; each runs solo next, so the next
                    # crash is attributable.
                    probes.extend(task for task, _ in casualties)
                respawn()
            elif policy.timeout_s is not None:
                now = time.monotonic()
                expired = [f for f in inflight.values() if f[2] <= now]
                if expired:
                    # The hung workers only die with the respawn; the
                    # rest of the in-flight tasks are collateral and
                    # re-queue without a fault charge.
                    collateral = [f for f in inflight.values() if f[2] > now]
                    inflight.clear()
                    for task, attempt, _, probe in expired:
                        emit("task_timeout", index=task[0], attempt=attempt,
                             timeout_s=policy.timeout_s)
                        charge(task, probe, CAUSE_TIMEOUT)
                    for task, _, _, probe in collateral:
                        (probes if probe else pending).appendleft(task)
                    respawn()
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
        for fut in inflight:
            fut.cancel()
        if pool is not None and owned_pool is None:
            pool.close()

    if failures:
        i = min(failures)
        error, cause = failures[i]
        if cause != CAUSE_ERROR:
            raise error
        raise ReproError(
            f"{label(i)} failed: {type(error).__name__}: {error}"
        ) from error
