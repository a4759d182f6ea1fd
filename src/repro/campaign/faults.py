"""Fault-handling policy and errors of the supervised dispatcher.

A :class:`RetryPolicy` describes how the dispatcher
(:func:`repro.dse.pool.run_tasks`) reacts when one task — a campaign or
DSE candidate, a sweep scenario — goes wrong: how many attempts a task
gets before it is finalized (a campaign quarantines a crash or timeout
as *poison*), how long a single attempt may run before it is declared
hung, and how re-dispatches are spaced (exponential backoff with
deterministic, seeded jitter — two runs of the same campaign retry at
the same offsets, so fault-recovery paths stay as reproducible as the
evaluations themselves).  ``explore`` and ``run_sweep`` run under the
default policy; ``campaign run`` takes one from its options.

The policy also covers the runner's *store* writes: a transient
``OSError`` on a checkpoint put (ENOSPC, EIO) is retried a few times
against a freshly rotated segment before the campaign gives up.
"""

from __future__ import annotations

import hashlib
import math
import sys
from dataclasses import dataclass

from repro.errors import ReproError


class FaultPolicyError(ReproError):
    """A retry/timeout policy is malformed."""


class WorkerCrashed(ReproError):
    """A pool worker died (SIGKILL, OOM, segfault) mid-evaluation."""


class CandidateTimeout(ReproError):
    """An evaluation attempt exceeded the policy deadline."""


@dataclass(frozen=True)
class RetryPolicy:
    """How the dispatcher treats per-task faults.

    The default policy (one attempt, no timeout) fails a crashed or
    erroring task immediately but still buys supervision: a dead worker
    no longer takes the campaign, DSE or sweep down with it, and
    campaign checkpoint puts retry transient store errors.
    """

    #: Evaluation attempts per candidate before it is finalized (as a
    #: quarantined poison record for crashes/timeouts, or a plain
    #: retryable failure record for evaluation errors).
    max_attempts: int = 1
    #: Per-attempt wall-clock deadline in seconds; ``None`` disables
    #: hang detection (an evaluation may run forever).
    timeout_s: float | None = None
    #: Base delay before re-dispatching a failed attempt.  0 retries
    #: immediately.
    backoff_s: float = 0.0
    #: Multiplier applied per additional attempt (exponential backoff).
    backoff_factor: float = 2.0
    #: Fractional jitter width: the delay is scaled by ``1 + jitter*u``
    #: with ``u in [-1, 1)`` derived deterministically from
    #: ``(seed, key, attempt)``.
    jitter: float = 0.1
    #: Seed folded into the jitter derivation.
    seed: int = 0
    #: Attempts for one store checkpoint put (transient ``OSError``).
    store_attempts: int = 3
    #: Pause between store put attempts.
    store_backoff_s: float = 0.05

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise FaultPolicyError("max_attempts must be >= 1")
        # NaN fails every comparison: a NaN deadline would never expire,
        # and an infinite deadline or backoff overflows the waits.
        if self.timeout_s is not None and not 0 < self.timeout_s < math.inf:
            raise FaultPolicyError(
                "timeout_s must be finite and positive (or None)")
        if not (0 <= self.backoff_s < math.inf
                and 0 <= self.store_backoff_s < math.inf):
            raise FaultPolicyError("backoff must be finite and non-negative")
        if self.store_attempts < 1:
            raise FaultPolicyError("store_attempts must be >= 1")
        if not 0 <= self.jitter <= 1:
            raise FaultPolicyError("jitter must be within [0, 1]")

    # ------------------------------------------------------------------

    @property
    def needs_supervision(self) -> bool:
        """True when the policy requires the supervised pool path
        (deadlines can only be enforced on futures, never on an
        in-process serial evaluation)."""
        return self.timeout_s is not None

    def jitter_u(self, key: str, attempt: int) -> float:
        """Deterministic ``u in [-1, 1)`` for ``(seed, key, attempt)``."""
        digest = hashlib.sha256(
            f"{self.seed}:{key}:{attempt}".encode()
        ).digest()
        # 53 bits -> uniform in [0, 1), exactly like random.random().
        u01 = int.from_bytes(digest[:7], "big") >> 3
        return 2.0 * (u01 / (1 << 53)) - 1.0

    def delay_s(self, key: str, attempt: int) -> float:
        """Backoff before dispatching ``attempt`` (2-based: the first
        retry).  Deterministic per ``(seed, key, attempt)``; saturates
        at the largest float rather than overflowing."""
        if attempt <= 1 or self.backoff_s <= 0:
            return 0.0
        try:
            base = self.backoff_s * self.backoff_factor ** (attempt - 2)
        except OverflowError:
            base = math.inf
        delay = base * (1.0 + self.jitter * self.jitter_u(key, attempt))
        return max(0.0, min(sys.float_info.max, delay))


#: Failure causes recorded on quarantine / retry events.
CAUSE_CRASH = "crash"
CAUSE_TIMEOUT = "timeout"
CAUSE_ERROR = "error"
