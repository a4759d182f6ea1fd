"""The one store-only campaign view behind ``campaign status``, ``watch``
and ``report``: the three commands agree, poison follows the store,
both throughput rates are per-campaign, and viewing writes nothing."""

import json
import re
import shutil
import time

import pytest

from repro.campaign import (
    CampaignError,
    CampaignInterrupted,
    CampaignRunner,
    CampaignSpec,
    RetryPolicy,
)
from repro.campaign.view import campaign_view, render_report, render_watch
from repro.cli.main import build_parser, main
from repro.core.sa import SASettings
from repro.dse import DseGrid, Workload, enumerate_candidates
from repro.dse.pool import _MAX_WAIT_S
from repro.obs.ledger import ledger_path, read_ledger
from repro.testing import parse_chaos
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType

#: SA iterations per candidate: one workload, one restart.
ITERS = 6


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


N = len(small_candidates())


def make_spec():
    return CampaignSpec(
        name="camp",
        candidates=small_candidates(),
        workloads=[Workload(tiny_graph(), batch=2)],
        sa=SASettings(iterations=ITERS, seed=11),
        warm_start=False,
    )


@pytest.fixture(scope="module")
def homes(tmp_path_factory):
    """Three finished-or-stopped campaigns, built once and only read:
    interrupted after 3 candidates; the last candidate quarantined as
    poison; and that poison campaign after ``--retry-quarantined``."""
    root = tmp_path_factory.mktemp("views")
    with pytest.raises(CampaignInterrupted):
        with CampaignRunner(make_spec(), root / "interrupted") as runner:
            runner.run(workers=1, fail_after=3)
    with CampaignRunner(make_spec(), root / "poison") as runner:
        runner.run(workers=2, policy=RetryPolicy(max_attempts=2),
                   chaos=parse_chaos(f"crash:{N - 1}:9"))
    shutil.copytree(root / "poison", root / "retried")
    with CampaignRunner(make_spec(), root / "retried") as runner:
        runner.run(workers=1, retry_quarantined=True)
    return root


def cli(capsys, *argv) -> str:
    capsys.readouterr()
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def drop_latest_run_end(home) -> None:
    """Make the latest run look still in progress: remove its
    ``run_finished``/``run_interrupted`` and ``perf`` lines."""
    path = ledger_path(home, "camp")
    events, _ = read_ledger(path)
    starts = [i for i, ev in enumerate(events)
              if ev["event"] in ("run_started", "run_resumed")]
    keep = events[:starts[-1]] + [
        ev for ev in events[starts[-1]:]
        if ev["event"] not in ("run_finished", "run_interrupted", "perf")
    ]
    path.write_text("".join(json.dumps(ev) + "\n" for ev in keep))


class TestPoison:
    def test_report_drops_poison_once_a_retry_succeeds(self, homes):
        before = campaign_view(homes / "poison", "camp")
        assert [q["index"] for q in before["quarantined"]] == [N - 1]
        assert before["quarantined"][0]["cause"] == "crash"
        assert before["quarantined"][0]["attempts"] == 2
        assert "quarantined (poison)" in render_report(before)

        after = campaign_view(homes / "retried", "camp")
        assert after["status"]["quarantined"] == 0
        assert after["status"]["done"] == N
        assert after["quarantined"] == []
        assert "quarantined (poison)" not in render_report(after)


class TestThroughput:
    @pytest.mark.parametrize("resume", [False, True],
                             ids=["first-run", "resumed-run"])
    def test_sa_rate_is_unknown_until_the_run_writes_perf(
        self, homes, tmp_path, resume
    ):
        home = tmp_path / "camp"
        shutil.copytree(homes / "interrupted", home)
        if resume:
            with CampaignRunner(make_spec(), home) as runner:
                runner.run(workers=1)
        drop_latest_run_end(home)

        doc = campaign_view(home, "camp")
        assert doc["run_active"]
        assert doc["resumed"] is resume
        assert doc["cands_per_sec"] > 0
        assert doc["sa_iters_per_sec"] is None
        assert doc["caches"] == {} and doc["diag_by_pid"] == {}
        frame = render_watch(doc)
        assert "n/a SA it/s" in frame
        assert "hit rate" not in frame
        assert json.loads(json.dumps(doc))["sa_iters_per_sec"] is None

    def test_both_rates_are_summed_over_shards(self, tmp_path):
        with CampaignRunner(make_spec(), tmp_path) as runner:
            runner.run(workers=2)
        doc = campaign_view(tmp_path, "camp")
        assert len(doc["shards"]) == 2
        assert all(s["evaluated"] for s in doc["shards"].values())
        # SA it/s over cand/s is the SA iterations per candidate,
        # whatever the worker count.
        assert doc["sa_iters_per_sec"] == pytest.approx(
            ITERS * doc["cands_per_sec"]
        )

    def test_a_same_process_resume_counts_its_own_work(self, tmp_path):
        """The resume's perf event, SA rate and operator tables cover
        what the resume did, not the interrupted run before it in the
        same process."""
        spec = make_spec()
        spec.sa = SASettings(iterations=ITERS, seed=11, diag=True)
        with pytest.raises(CampaignInterrupted):
            with CampaignRunner(spec, tmp_path) as runner:
                runner.run(workers=1, fail_after=3)
        with CampaignRunner(spec, tmp_path) as runner:
            report = runner.run(workers=1)
        assert report.evaluated == N - 3

        events, _ = read_ledger(ledger_path(tmp_path, "camp"))
        perf = events[-1]
        assert perf["event"] == "perf"
        # One workload, one restart per candidate.
        assert perf["counters"]["sa.iterations"] == report.evaluated * ITERS
        assert all(v >= 0 for v in perf["counters"].values())
        assert all(t["calls"] >= 0 for t in perf["timers"].values())

        doc = campaign_view(tmp_path, "camp")
        assert doc["sa_iters_per_sec"] / doc["cands_per_sec"] == \
            pytest.approx(ITERS)
        start = max(i for i, ev in enumerate(events)
                    if ev["event"] == "run_resumed")
        resumed = [ev["index"] for ev in events[start:]
                   if ev["event"] == "candidate_evaluated"]
        assert len(resumed) == report.evaluated
        draws = sum(n for i in resumed
                    for uses in report.results[i].operator_uses.values()
                    for n in uses.values())
        assert draws == report.evaluated * ITERS
        assert sum(op["uses"] for ops in doc["diag_by_pid"].values()
                   for op in ops.values()) == draws


def test_the_report_lists_every_compiled_cache(homes, capsys):
    """Pool workers' per-candidate caches reach the run's ``perf``
    event, so ``report`` and the ``watch`` cache table cover all of
    them (the poison home is a 2-worker run)."""
    where = ["--name", "camp", "--out", str(homes / "poison")]
    doc = json.loads(cli(capsys, "campaign", "report", "--json", *where))
    frame = cli(capsys, "campaign", "watch", "--once", *where)
    for cache in ("layers", "self", "pairs", "slices", "parts"):
        stats = doc["caches"][f"lru.compiled.{cache}"]
        assert stats["hits"] + stats["misses"] > 0, cache
        assert re.search(rf"^lru\.compiled\.{cache} +\d+ +\d+", frame,
                         re.M), cache


@pytest.mark.parametrize("interval", ["-1", "0", "nan", "inf"])
def test_watch_rejects_a_bad_interval_at_parse_time(interval, capsys):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([
            "campaign", "watch", "--name", "camp", "--interval", interval,
        ])
    assert exc.value.code == 2
    assert "--interval" in capsys.readouterr().err


def test_watch_sleeps_a_huge_interval_in_pieces(homes, monkeypatch, capsys):
    """A finite interval past what one ``time.sleep`` takes is slept in
    pieces the platform accepts, not raised as ``OverflowError``."""
    slept = []

    def fake_sleep(seconds):
        slept.append(seconds)
        if len(slept) == 3:
            raise KeyboardInterrupt  # how a watch is stopped

    monkeypatch.setattr(time, "sleep", fake_sleep)
    assert main(["campaign", "watch", "--name", "camp", "--out",
                 str(homes / "poison"), "--interval", "1e10"]) == 0
    assert len(slept) == 3
    assert max(slept) <= _MAX_WAIT_S


@pytest.mark.parametrize("case", ["interrupted", "poison", "retried"])
def test_status_watch_and_report_agree(homes, case, capsys):
    out = str(homes / case)
    text = cli(capsys, "campaign", "status", "--name", "camp", "--out", out)
    done, total, pending, failed, quarantined = map(int, re.match(
        r"campaign 'camp': (\d+)/(\d+) done, (\d+) pending, (\d+) failed, "
        r"(\d+) quarantined", text,
    ).groups())
    counts = {"done": done, "pending": pending, "failed": failed,
              "quarantined": quarantined}
    assert total == N

    watch = json.loads(cli(capsys, "campaign", "watch", "--name", "camp",
                           "--out", out, "--once", "--json"))
    report = json.loads(cli(capsys, "campaign", "report", "--name", "camp",
                            "--out", out, "--json"))
    assert len(report["candidates"]) == done
    assert len(report["quarantined"]) == quarantined
    assert "candidates" not in watch
    for doc in (watch, report):
        assert {k: doc["status"][k] for k in counts} == counts


def test_viewing_writes_nothing(homes, tmp_path, capsys):
    def tree(home):
        return {p: p.read_bytes() if p.is_file() else None
                for p in home.rglob("*")}

    home = homes / "poison"
    before = tree(home)
    campaign_view(home, "camp")
    for argv in (["status"], ["watch", "--once"], ["watch", "--once", "--json"],
                 ["report"], ["report", "--json"]):
        cli(capsys, "campaign", argv[0], "--name", "camp", "--out", str(home),
            *argv[1:])
    assert tree(home) == before

    # Without a result store the views and the export refuse, rather
    # than create an empty store and report nothing done.
    home = tmp_path / "poison"
    shutil.copytree(homes / "poison", home)
    shutil.rmtree(home / "store")
    before = tree(home)
    with pytest.raises(CampaignError, match="no result store at"):
        campaign_view(home, "camp")
    for argv in (["status"], ["watch", "--once"], ["report"], ["export"]):
        with pytest.raises(SystemExit, match="no result store at"):
            main(["campaign", argv[0], "--name", "camp", "--out", str(home),
                  *argv[1:]])
    assert tree(home) == before
