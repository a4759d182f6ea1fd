"""Fault-tolerant campaign execution under the deterministic chaos plan.

The contract pinned here is ISSUE 9's acceptance criterion: under a
seeded chaos plan injecting a worker SIGKILL, a hang past the deadline
and an ENOSPC store put into a 2-worker campaign, the run completes
without operator intervention, every non-poison candidate lands in the
store exactly once, poison candidates become structured failure
records, and a clean resume + export is byte-identical to a fault-free
run of the surviving candidates.
"""

from repro.campaign import (
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
    export_campaign,
)
from repro.campaign.store import KIND_CANDIDATE, ResultStore
from repro.campaign.view import campaign_view, render_report, render_watch
from repro.core.sa import SASettings
from repro.dse import DseGrid, Workload, enumerate_candidates
from repro.obs.ledger import LEDGER_NAME, read_ledger
from repro.perf import PERF
from repro.testing import parse_chaos
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType

#: Generous per-attempt deadline: far above a tiny-campaign evaluation
#: (~0.5s), far below the injected 45s hang.
DEADLINE_S = 6.0


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


def make_spec(name="camp", candidates=None):
    return CampaignSpec(
        name=name,
        candidates=small_candidates() if candidates is None
        else candidates,
        workloads=[Workload(tiny_graph(), batch=2)],
        sa=SASettings(iterations=6, seed=11),
        warm_start=False,  # keys independent of store history
    )


def export_bytes(home, name):
    paths = export_campaign(home, name)
    return {label: path.read_bytes() for label, path in paths.items()}


N = len(small_candidates())


def run_clean(home, candidates=None):
    """A fault-free reference run in its own home."""
    with CampaignRunner(make_spec(candidates=candidates), home) as runner:
        return runner.run(workers=1)


def events_named(home, name, event):
    events, _ = read_ledger(home / name / LEDGER_NAME)
    return [ev for ev in events if ev.get("event") == event]


class TestCrashRecovery:
    def test_worker_sigkill_recovers_and_exports_identically(self, tmp_path):
        clean, faulty = tmp_path / "clean", tmp_path / "faulty"
        run_clean(clean)

        PERF.reset()
        plan = parse_chaos("crash:1")  # SIGKILL candidate 1's 1st attempt
        with CampaignRunner(make_spec(), faulty) as runner:
            report = runner.run(
                workers=2, policy=RetryPolicy(max_attempts=3), chaos=plan,
            )
        assert report.evaluated == N
        assert report.failed == 0
        assert report.quarantined == 0
        assert PERF.get("dse.pool.worker_deaths") >= 1

        # The crash is visible in the ledger, and the retried candidate
        # carries its attempt count in the store (provenance only).
        assert events_named(faulty, "camp", "worker_died")
        assert events_named(faulty, "camp", "pool_respawned")
        with CampaignRunner(make_spec(), faulty) as runner:
            rec = runner.store.get(
                KIND_CANDIDATE, runner.candidate_keys[1]
            )
        assert rec["attempts"] >= 2

        # Clean resume: nothing re-evaluates; export is bit-identical.
        PERF.reset()
        with CampaignRunner(make_spec(), faulty) as runner:
            resumed = runner.run(workers=1)
        assert resumed.evaluated == 0
        assert resumed.store_hits == N
        assert PERF.get("dse.candidates") == 0
        assert export_bytes(clean, "camp") == export_bytes(faulty, "camp")


class TestTimeouts:
    def test_hang_past_deadline_times_out_and_retries(self, tmp_path):
        clean, faulty = tmp_path / "clean", tmp_path / "faulty"
        run_clean(clean)

        PERF.reset()
        plan = parse_chaos("hang:0:1:45")  # candidate 0 hangs 45s once
        with CampaignRunner(make_spec(), faulty) as runner:
            report = runner.run(
                workers=2,
                policy=RetryPolicy(max_attempts=3, timeout_s=DEADLINE_S),
                chaos=plan,
            )
        assert report.evaluated == N
        assert report.quarantined == 0
        assert PERF.get("campaign.timeouts") >= 1
        assert PERF.get("campaign.retries") >= 1
        assert events_named(faulty, "camp", "candidate_timeout")
        assert export_bytes(clean, "camp") == export_bytes(faulty, "camp")


class TestQuarantine:
    def test_poison_candidate_is_quarantined_and_skipped(self, tmp_path):
        home = tmp_path / "faulty"
        survivors_home = tmp_path / "survivors"
        # Poison the LAST candidate so the surviving indices line up
        # with a fault-free campaign over just the survivors.
        plan = parse_chaos(f"crash:{N - 1}:9")  # crashes every attempt
        PERF.reset()
        with CampaignRunner(make_spec(), home) as runner:
            report = runner.run(
                workers=2, policy=RetryPolicy(max_attempts=2), chaos=plan,
            )
            poison_key = runner.candidate_keys[N - 1]
        assert report.evaluated == N - 1
        assert report.quarantined == 1
        assert report.failed == 1
        assert report.results[N - 1] is None
        assert PERF.get("campaign.quarantined") == 1

        # The quarantine is a structured failure record in the store.
        with ResultStore(home / "store") as store:
            assert store.quarantined_keys(KIND_CANDIDATE) == {poison_key}
            assert store.failed_keys(KIND_CANDIDATE) == set()
            rec = store.get("failure", poison_key)
        assert rec["poison"] is True
        assert rec["cause"] == "crash"
        assert rec["attempts"] == 2
        assert "WorkerCrashed" in rec["error"]
        (ev,) = events_named(home, "camp", "candidate_quarantined")
        assert ev["cause"] == "crash"
        assert ev["attempts"] == 2

        # Status accounts for it; resume skips it without chaos armed.
        status = campaign_view(home, "camp")["status"]
        assert status["quarantined"] == 1
        assert status["pending"] == 0
        assert status["done"] == N - 1
        PERF.reset()
        with CampaignRunner(make_spec(), home) as runner:
            resumed = runner.run(workers=1)
        assert resumed.evaluated == 0
        assert resumed.store_hits == N - 1
        assert resumed.quarantined == 1
        assert PERF.get("dse.candidates") == 0

        # Export equals a fault-free campaign over the survivors.
        run_clean(survivors_home, candidates=small_candidates()[:N - 1])
        assert export_bytes(home, "camp") == export_bytes(
            survivors_home, "camp"
        )

    def test_retry_quarantined_opts_back_in(self, tmp_path):
        home = tmp_path / "camp"
        plan = parse_chaos(f"crash:{N - 1}:9")
        with CampaignRunner(make_spec(), home) as runner:
            runner.run(workers=2, policy=RetryPolicy(max_attempts=2),
                       chaos=plan)
        # Chaos gone (the "code fix"): the poison candidate now passes.
        with CampaignRunner(make_spec(), home) as runner:
            report = runner.run(workers=1, retry_quarantined=True)
        assert report.evaluated == 1
        assert report.quarantined == 0  # success supersedes the poison
        assert all(r is not None for r in report.results)
        assert campaign_view(home, "camp")["status"]["quarantined"] == 0


class TestStoreFaults:
    def test_enospc_put_is_retried_on_a_fresh_segment(self, tmp_path):
        clean, faulty = tmp_path / "clean", tmp_path / "faulty"
        run_clean(clean)

        PERF.reset()
        plan = parse_chaos("enospc:2")  # 2nd put of the run fails once
        with CampaignRunner(make_spec(), faulty) as runner:
            report = runner.run(workers=1, chaos=plan)
        assert report.evaluated == N
        assert report.failed == 0
        assert PERF.get("campaign.store_put_retries") == 1
        assert PERF.get("store.put.errors") == 1
        assert events_named(faulty, "camp", "store_put_retried")
        # The failed put abandoned its segment for a fresh one.
        segments = list((faulty / "store" / "segments").glob("*.jsonl"))
        assert len(segments) >= 2
        assert export_bytes(clean, "camp") == export_bytes(faulty, "camp")

    def test_torn_write_cannot_corrupt_a_later_record(self, tmp_path):
        clean, faulty = tmp_path / "clean", tmp_path / "faulty"
        run_clean(clean)

        plan = parse_chaos("torn:2")  # half a record, then EIO
        with CampaignRunner(make_spec(), faulty) as runner:
            report = runner.run(workers=1, chaos=plan)
        assert report.evaluated == N
        # A fresh scan sees every record plus exactly one tolerated
        # torn line (the abandoned half-write on the rotated-away
        # segment) — the retry never concatenated onto it.
        with ResultStore(faulty / "store") as store:
            assert store.skipped_lines == 1
            assert len(store.keys(KIND_CANDIDATE)) == N
        assert export_bytes(clean, "camp") == export_bytes(faulty, "camp")


class TestAcceptance:
    def test_combined_chaos_plan_2_workers(self, tmp_path):
        """ISSUE 9 acceptance: SIGKILL + hang + ENOSPC, one 2-worker run."""
        clean, faulty = tmp_path / "clean", tmp_path / "faulty"
        run_clean(clean)

        PERF.reset()
        plan = parse_chaos("crash:1,hang:0:1:45,enospc:2")
        with CampaignRunner(make_spec(), faulty) as runner:
            report = runner.run(
                workers=2,
                policy=RetryPolicy(max_attempts=3, timeout_s=DEADLINE_S),
                chaos=plan,
            )
            keys = list(runner.candidate_keys)
        # Completes without intervention; nothing is poison here.
        assert report.evaluated == N
        assert report.failed == 0
        assert report.quarantined == 0
        assert PERF.get("dse.pool.worker_deaths") >= 1
        assert PERF.get("campaign.store_put_retries") >= 1

        # Every non-poison candidate evaluated exactly once: one
        # checkpoint event per candidate key.
        evaluated = events_named(faulty, "camp", "candidate_evaluated")
        assert sorted(ev["key"] for ev in evaluated) == sorted(keys)

        # Clean resume re-evaluates zero candidates...
        PERF.reset()
        with CampaignRunner(make_spec(), faulty) as runner:
            resumed = runner.run(workers=1)
        assert resumed.evaluated == 0
        assert resumed.store_hits == N
        assert PERF.get("dse.candidates") == 0
        # ... and the export is byte-identical to the fault-free run.
        assert export_bytes(clean, "camp") == export_bytes(faulty, "camp")


class TestHealthSurfaces:
    def test_watch_and_report_surface_fault_health(self, tmp_path):
        home = tmp_path / "camp"
        plan = parse_chaos(f"crash:{N - 1}:9")
        with CampaignRunner(make_spec(), home) as runner:
            runner.run(workers=2, policy=RetryPolicy(max_attempts=2),
                       chaos=plan)

        snap = campaign_view(home, "camp")
        assert snap["faults"]["worker_deaths"] >= 1
        assert snap["faults"]["quarantined"] == 1
        assert snap["faults"]["pool_respawns"] >= 1
        assert snap["status"]["quarantined"] == 1
        frame = render_watch(snap)
        assert "faults:" in frame
        assert "1 quarantined" in frame
        assert "poison" in frame  # shard health column

        data = campaign_view(home, "camp")
        assert [q["index"] for q in data["quarantined"]] == [N - 1]
        text = render_report(data)
        assert "quarantined (poison) candidates" in text
        assert "--retry-quarantined" in text

