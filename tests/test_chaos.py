"""The deterministic chaos harness and the retry-policy math.

The harness exists so fault-recovery tests are *reproducible*: every
fault is a pure function of its schedule inputs (candidate index +
attempt for evaluation faults, put ordinal for store faults), never of
wall-clock or randomness.  These tests pin that purity, the spec
round-trip, and the hook seams the production modules expose.
"""

import errno
import io
import math
import time

import pytest

from repro.campaign.faults import FaultPolicyError, RetryPolicy
from repro.testing import (
    ChaosError,
    ChaosFault,
    ChaosPlan,
    format_chaos,
    parse_chaos,
)


class TestParse:
    def test_round_trip(self):
        spec = "crash:1:2,hang:0:1:45,enospc:2,torn:5"
        plan = parse_chaos(spec, seed=7)
        assert format_chaos(plan) == spec
        assert plan.seed == 7
        assert [f.kind for f in plan.faults] == [
            "crash", "hang", "enospc", "torn",
        ]

    def test_defaults(self):
        plan = parse_chaos("crash:3")
        (fault,) = plan.faults
        assert fault == ChaosFault("crash", 3, count=1, seconds=None)

    def test_seconds_without_count(self):
        plan = parse_chaos("slow:2:1:0.25")
        assert plan.faults[0].seconds == 0.25
        assert format_chaos(plan) == "slow:2:1:0.25"

    @pytest.mark.parametrize("bad", [
        "", "crash", "crash:x", "boom:1", "crash:-1", "crash:1:0",
        "crash:1:1:-2", "crash:1:2:3:4",
    ])
    def test_bad_specs_rejected(self, bad):
        with pytest.raises(ChaosError):
            parse_chaos(bad)

    def test_whitespace_and_blank_parts_tolerated(self):
        plan = parse_chaos(" crash:1 , ,hang:2 ")
        assert len(plan.faults) == 2


class TestSchedule:
    def test_eval_fault_is_pure_and_attempt_bounded(self):
        plan = parse_chaos("crash:1:2")
        assert plan.eval_fault(1, 1) is not None
        assert plan.eval_fault(1, 2) is not None
        assert plan.eval_fault(1, 3) is None  # third attempt survives
        assert plan.eval_fault(0, 1) is None
        # Pure: repeated lookups agree (no hidden state).
        assert plan.eval_fault(1, 1) == plan.eval_fault(1, 1)

    def test_store_fault_targets_put_ordinal(self):
        plan = parse_chaos("enospc:2,torn:4")
        assert plan.store_fault(1) is None
        assert plan.store_fault(2).kind == "enospc"
        assert plan.store_fault(4).kind == "torn"

    def test_slow_seconds_is_seeded_and_deterministic(self):
        a = ChaosPlan([ChaosFault("slow", 0)], seed=3)
        b = ChaosPlan([ChaosFault("slow", 0)], seed=3)
        assert a.slow_seconds(2) == b.slow_seconds(2)
        assert a.slow_seconds(0) != a.slow_seconds(1)


class TestFiring:
    def test_fire_eval_noop_without_matching_fault(self):
        plan = parse_chaos("crash:7")
        start = time.monotonic()
        plan.fire_eval(0, 1)  # no fault armed for candidate 0
        assert time.monotonic() - start < 0.5

    def test_fire_eval_sleeps_for_hang_and_slow(self):
        plan = parse_chaos("hang:0:1:0.05,slow:1:1:0.05")
        start = time.monotonic()
        plan.fire_eval(0, 1)
        plan.fire_eval(1, 1)
        assert time.monotonic() - start >= 0.1

    def test_fire_put_enospc_writes_nothing(self):
        plan = parse_chaos("enospc:1")
        fh = io.StringIO()
        with pytest.raises(OSError) as exc:
            plan.fire_put(fh, '{"kind":"x"}')
        assert exc.value.errno == errno.ENOSPC
        assert fh.getvalue() == ""

    def test_fire_put_torn_leaves_half_a_line(self):
        plan = parse_chaos("torn:1")
        fh = io.StringIO()
        line = '{"kind":"candidate","key":"k","payload":{}}'
        with pytest.raises(OSError) as exc:
            plan.fire_put(fh, line)
        assert exc.value.errno == errno.EIO
        assert fh.getvalue() == line[: len(line) // 2]
        assert "\n" not in fh.getvalue()

    def test_put_counter_advances_past_clean_puts(self):
        plan = parse_chaos("enospc:3")
        fh = io.StringIO()
        plan.fire_put(fh, "a")  # put 1
        plan.fire_put(fh, "b")  # put 2
        with pytest.raises(OSError):
            plan.fire_put(fh, "c")  # put 3 fires
        plan.fire_put(fh, "d")  # put 4: store faults fire once


class TestInstall:
    def test_install_arms_both_seams_and_uninstall_clears(self):
        from repro.campaign import store as store_mod
        from repro.dse import explorer as explorer_mod

        plan = parse_chaos("crash:1")
        assert explorer_mod._EVAL_HOOK is None
        assert store_mod._PUT_HOOK is None
        with plan:
            assert explorer_mod._EVAL_HOOK is not None
            assert store_mod._PUT_HOOK is not None
        assert explorer_mod._EVAL_HOOK is None
        assert store_mod._PUT_HOOK is None

    def test_uninstall_never_clobbers_a_foreign_hook(self):
        from repro.dse import explorer as explorer_mod

        plan = parse_chaos("crash:1")
        plan.install()
        other = parse_chaos("hang:0")
        other.install()  # replaces plan's hooks
        plan.uninstall()  # must leave other's hooks armed
        assert explorer_mod._EVAL_HOOK is not None
        other.uninstall()
        assert explorer_mod._EVAL_HOOK is None


class TestRetryPolicy:
    def test_defaults_are_single_attempt_no_deadline(self):
        policy = RetryPolicy()
        assert policy.max_attempts == 1
        assert policy.timeout_s is None
        assert not policy.needs_supervision

    def test_timeout_forces_supervision(self):
        assert RetryPolicy(timeout_s=5.0).needs_supervision

    @pytest.mark.parametrize("kwargs", [
        {"max_attempts": 0},
        {"timeout_s": 0.0},
        {"timeout_s": -1.0},
        {"timeout_s": math.inf},
        {"timeout_s": math.nan},
        {"backoff_s": -0.1},
        {"backoff_s": math.inf},
        {"backoff_s": math.nan},
        {"store_backoff_s": -0.1},
        {"store_attempts": 0},
        {"jitter": 1.5},
    ])
    def test_malformed_policies_rejected(self, kwargs):
        with pytest.raises(FaultPolicyError):
            RetryPolicy(**kwargs)

    def test_delay_is_deterministic_per_seed_key_attempt(self):
        a = RetryPolicy(backoff_s=0.1, seed=5)
        b = RetryPolicy(backoff_s=0.1, seed=5)
        assert a.delay_s("k", 2) == b.delay_s("k", 2)
        assert a.delay_s("k", 2) != a.delay_s("k", 3)
        assert a.delay_s("k", 2) != a.delay_s("other", 2)
        c = RetryPolicy(backoff_s=0.1, seed=6)
        assert a.delay_s("k", 2) != c.delay_s("k", 2)

    def test_delay_grows_exponentially_within_jitter(self):
        policy = RetryPolicy(backoff_s=0.1, backoff_factor=2.0, jitter=0.1)
        d2 = policy.delay_s("k", 2)
        d4 = policy.delay_s("k", 4)
        assert 0.09 <= d2 <= 0.11          # 0.1 * (1 +/- 0.1)
        assert 0.36 <= d4 <= 0.44          # 0.4 * (1 +/- 0.1)

    def test_delay_saturates_past_the_float_range(self):
        # 0.1 * 2**1098 overflows; the delay must stay a finite float
        # no shorter than an earlier attempt's, not raise.
        policy = RetryPolicy(max_attempts=2000, backoff_s=0.1)
        late = policy.delay_s("x", 1100)
        assert math.isfinite(late)
        assert late >= policy.delay_s("x", 1000) > 1e299

    def test_first_attempt_and_zero_backoff_have_no_delay(self):
        assert RetryPolicy(backoff_s=0.1).delay_s("k", 1) == 0.0
        assert RetryPolicy(backoff_s=0.0).delay_s("k", 5) == 0.0

    def test_jitter_u_is_bounded(self):
        policy = RetryPolicy()
        for attempt in range(2, 20):
            u = policy.jitter_u("key", attempt)
            assert -1.0 <= u < 1.0
