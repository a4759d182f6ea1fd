"""Store-only campaign watch + the ledger a real campaign run writes."""

import os

import pytest

from repro.campaign import CampaignInterrupted, CampaignRunner, CampaignSpec
from repro.campaign.view import campaign_view, render_watch
from repro.cli.main import main
from repro.core.engine import MappingEngine, MappingEngineSettings
from repro.core.sa import SASettings
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
)
from repro.io.serialization import (
    candidate_result_from_dict,
    candidate_result_to_dict,
)
from repro.obs.ledger import ledger_path, read_ledger
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


N_CANDIDATES = len(small_candidates())


def make_spec(name="camp", iterations=6):
    return CampaignSpec(
        name=name,
        candidates=small_candidates(),
        workloads=[Workload(tiny_graph(), batch=2)],
        sa=SASettings(iterations=iterations, seed=11),
        warm_start=True,
    )


@pytest.fixture
def interrupted_campaign(tmp_path):
    """A campaign killed after 3 of 4 candidates (the acceptance
    scenario: watch must work store-only on an interrupted run)."""
    home = tmp_path / "campaigns"
    with pytest.raises(CampaignInterrupted):
        with CampaignRunner(make_spec(), home) as runner:
            runner.run(workers=1, fail_after=3)
    return home


class TestLedgerEvents:
    def test_interrupted_run_writes_a_coherent_ledger(
        self, interrupted_campaign
    ):
        events, skipped = read_ledger(
            ledger_path(interrupted_campaign, "camp")
        )
        assert skipped == 0
        names = [e["event"] for e in events]
        assert names[0] == "run_started"
        assert names.count("candidate_evaluated") == 3
        assert "run_interrupted" in names
        assert names[-1] == "perf"

        start = events[0]
        assert start["name"] == "camp"
        assert start["total"] == N_CANDIDATES
        assert start["pending"] == N_CANDIDATES

        for ev in events:
            if ev["event"] != "candidate_evaluated":
                continue
            assert ev["key"] and ev["duration_s"] > 0
            assert ev["score"] > 0
            assert ev["shard"] == os.getpid()
            # One engine restart by default: mean > 0, variance 0.
            assert ev["restarts"] == 1
            assert ev["restart_mean_s"] > 0
            assert ev["restart_var_s"] == 0.0

        perf = events[-1]
        assert perf["counters"]["dse.candidates"] == 3
        assert perf["counters"]["sa.iterations"] > 0
        assert "spans" not in perf
        assert perf["timers"]

    def test_resume_appends_resumed_and_finished(self, interrupted_campaign):
        with CampaignRunner(make_spec(), interrupted_campaign) as runner:
            runner.run(workers=1)
        events, _ = read_ledger(ledger_path(interrupted_campaign, "camp"))
        names = [e["event"] for e in events]
        assert "run_resumed" in names
        assert "run_finished" in names
        finished = next(e for e in events if e["event"] == "run_finished")
        assert finished["evaluated"] == N_CANDIDATES - 3
        assert finished["store_hits"] == 3


class TestWatchSnapshot:
    def test_interrupted_campaign_store_only_view(self, interrupted_campaign):
        snap = campaign_view(interrupted_campaign, "camp")
        assert snap["status"]["done"] == 3
        assert snap["status"]["pending"] == N_CANDIDATES - 3
        assert snap["runs"] == 1
        assert not snap["resumed"]
        assert not snap["run_active"]

        # Per-shard health: one serial shard, this pid.
        assert list(snap["shards"]) == [os.getpid()]
        shard = snap["shards"][os.getpid()]
        assert shard["evaluated"] == 3
        assert shard["failed"] == 0
        assert shard["busy_s"] > 0 and shard["rate"] > 0
        assert snap["cands_per_sec"] == pytest.approx(shard["rate"])
        assert snap["sa_iters_per_sec"] > 0
        assert snap["eta_s"] is not None and snap["eta_s"] > 0
        assert snap["ledger_skipped"] == 0

    def test_throughput_counts_only_the_latest_run(
        self, interrupted_campaign
    ):
        with CampaignRunner(make_spec(), interrupted_campaign) as runner:
            runner.run(workers=1)
        snap = campaign_view(interrupted_campaign, "camp")
        assert snap["runs"] == 2
        assert snap["resumed"]
        assert not snap["run_active"]
        # The resumed segment evaluated exactly the pending candidates.
        assert sum(s["evaluated"] for s in snap["shards"].values()) == \
            N_CANDIDATES - 3
        assert snap["status"]["pending"] == 0
        assert snap["eta_s"] is None
        # Cache table comes from the run's perf event, and the resumed
        # run warm-starts from stored neighbours.
        assert snap["caches"]

    def test_torn_ledger_tail_is_tolerated(self, interrupted_campaign):
        path = ledger_path(interrupted_campaign, "camp")
        with open(path, "a") as fh:
            fh.write('{"event": "candidate_eva')
        snap = campaign_view(interrupted_campaign, "camp")
        assert snap["ledger_skipped"] == 1
        assert snap["status"]["done"] == 3


class TestRender:
    def test_frame_contains_progress_shards_and_throughput(
        self, interrupted_campaign
    ):
        frame = render_watch(campaign_view(interrupted_campaign, "camp"))
        assert "campaign 'camp'" in frame
        assert f"3/{N_CANDIDATES} done, {N_CANDIDATES - 3} pending" in frame
        assert "cand/s" in frame and "SA it/s" in frame
        assert "ETA" in frame
        assert "shard" in frame and str(os.getpid()) in frame
        assert "ledger:" in frame

    def test_cli_watch_once(self, interrupted_campaign, capsys):
        rc = main([
            "campaign", "watch", "--name", "camp",
            "--out", str(interrupted_campaign), "--once",
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "campaign 'camp'" in out
        assert f"3/{N_CANDIDATES} done" in out

    def test_cli_watch_once_json(self, interrupted_campaign, capsys):
        import json

        rc = main([
            "campaign", "watch", "--name", "camp",
            "--out", str(interrupted_campaign), "--once", "--json",
        ])
        assert rc == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["status"]["done"] == 3
        assert str(os.getpid()) in snap["shards"]
        assert not snap["run_active"]

    def test_cli_watch_unknown_campaign_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main([
                "campaign", "watch", "--name", "nope",
                "--out", str(tmp_path), "--once",
            ])


class TestRestartVariance:
    def test_engine_records_one_wall_time_per_restart(self):
        arch = small_candidates()[0]
        engine = MappingEngine(arch, settings=MappingEngineSettings(
            sa=SASettings(iterations=5, seed=1), restarts=3,
        ))
        result = engine.map(tiny_graph(), batch=2)
        assert len(result.restart_wall_times) == 3
        assert all(t > 0 for t in result.restart_wall_times)

    def test_no_sa_means_no_restart_times(self):
        arch = small_candidates()[0]
        engine = MappingEngine(arch, settings=MappingEngineSettings(
            sa=SASettings(iterations=0), restarts=3,
        ))
        result = engine.map(tiny_graph(), batch=2)
        assert result.restart_wall_times == []

    def test_candidate_restart_times_roundtrip(self):
        explorer = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=4, seed=1),
        )
        result = explorer.evaluate_candidate(small_candidates()[0])
        (wl_name,) = result.restart_times
        assert len(result.restart_times[wl_name]) == 1

        rt = candidate_result_from_dict(candidate_result_to_dict(result))
        assert rt.restart_times == result.restart_times

        # Pre-observability records (no restart_times field) still load.
        legacy = candidate_result_to_dict(result)
        legacy.pop("restart_times")
        assert candidate_result_from_dict(legacy).restart_times == {}
