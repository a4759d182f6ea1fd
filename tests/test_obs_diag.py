"""Search diagnostics: curves, operator effectiveness, campaign report."""

import os
import random
import statistics

import pytest

from repro.campaign import CampaignRunner, CampaignSpec
from repro.campaign.view import campaign_view, render_report
from repro.campaign.keys import settings_digest
from repro.cli.main import main
from repro.core.graphpart import partition_graph
from repro.core.initial import initial_lms
from repro.core.sa import SAController, SASettings
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
)
from repro.evalmodel import Evaluator
from repro.io.serialization import (
    candidate_result_from_dict,
    candidate_result_to_dict,
)
from repro.obs.diag import (
    SARunDiag,
    StreamingMoments,
    curve_summary,
    render_sa_diag,
    sparkline,
)
from repro.perf import PERF
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


def run_sa(arch, settings, compiled=True):
    """One annealing run on the tiny graph; returns the controller."""
    evaluator = Evaluator(arch, cache=compiled)
    graph = tiny_graph()
    groups = partition_graph(graph, arch, batch=2)
    lmss = [initial_lms(graph, g, arch) for g in groups]
    controller = SAController(graph, evaluator, lmss, 2, settings)
    controller.run()
    return controller


class TestStreamingMoments:
    def test_matches_batch_statistics(self):
        rng = random.Random(3)
        xs = [rng.gauss(2.0, 1.5) for _ in range(200)]
        m = StreamingMoments()
        for x in xs:
            m.add(x)
        assert m.count == 200
        assert m.mean == pytest.approx(statistics.fmean(xs))
        assert m.variance == pytest.approx(statistics.pvariance(xs))

    def test_merge_equals_sequential(self):
        rng = random.Random(7)
        xs = [rng.uniform(-1, 1) for _ in range(50)]
        a, b, whole = StreamingMoments(), StreamingMoments(), StreamingMoments()
        for x in xs[:20]:
            a.add(x)
        for x in xs[20:]:
            b.add(x)
        for x in xs:
            whole.add(x)
        a.merge(b)
        assert a.count == whole.count
        assert a.mean == pytest.approx(whole.mean)
        assert a.m2 == pytest.approx(whole.m2)

    def test_merge_into_empty_and_from_empty(self):
        m = StreamingMoments()
        m.add(1.0)
        empty = StreamingMoments()
        empty.merge(m)
        assert (empty.count, empty.mean) == (1, 1.0)
        m.merge(StreamingMoments())
        assert m.count == 1

    def test_dict_round_trip(self):
        m = StreamingMoments()
        for x in (1.0, 2.0, 4.0):
            m.add(x)
        rt = StreamingMoments.from_dict(m.to_dict())
        assert (rt.count, rt.mean, rt.m2) == (m.count, m.mean, m.m2)


class TestSparkline:
    def test_shapes(self):
        assert sparkline([]) == ""
        assert sparkline([5, 5, 5]) == "▁▁▁"
        s = sparkline(list(range(100)), width=10)
        assert len(s) == 10
        assert s[0] == "▁" and s[-1] == "█"


class TestCurveCompaction:
    def test_stride_doubles_and_points_stay_aligned(self):
        d = SARunDiag(iterations=10_000, seed=0, max_points=64)
        for i in range(10_000):
            if d.want(i):
                d.sample(i, 100.0 - i * 0.001, 100.0, 0.1)
        assert len(d.curve) <= 64
        assert d.curve_stride > 1
        # Every kept point sits on the final stride — the set a run
        # started at that stride would have sampled.
        assert all(p[0] % d.curve_stride == 0 for p in d.curve)
        # Best-cost series stays monotone (it was fed monotone).
        best = [p[1] for p in d.curve]
        assert best == sorted(best, reverse=True)

    def test_deterministic(self):
        def record():
            d = SARunDiag(iterations=3000, seed=5, max_points=32)
            for i in range(3000):
                if d.want(i):
                    d.sample(i, 3000 - i, 3000, 0.2)
            return d.to_dict()

        assert record() == record()


class TestControllerRecording:
    def test_diag_off_by_default(self):
        controller = run_sa(
            small_candidates()[0], SASettings(iterations=6, seed=1)
        )
        assert controller._diag is None
        assert controller.stats.diag is None

    def test_diag_records_curve_operators_temps(self):
        controller = run_sa(
            small_candidates()[0],
            SASettings(iterations=20, seed=1, diag=True),
        )
        diag = controller.stats.diag
        assert diag is not None
        assert len(diag["curve"]) == 20
        assert diag["temps"][0][1] == pytest.approx(0.30)
        assert diag["initial_cost"] == controller.stats.initial_cost
        assert diag["final_cost"] == controller.stats.final_cost
        ops = diag["operators"]
        # The recorder agrees with the coarse SAStats tallies.
        assert sum(o["proposed"] for o in ops.values()) == \
            controller.stats.proposed
        assert sum(o["accepted"] for o in ops.values()) == \
            controller.stats.accepted
        assert sum(o["improved"] for o in ops.values()) == \
            controller.stats.improved
        assert {name: o["uses"] for name, o in ops.items()} == \
            controller.stats.operator_uses
        for o in ops.values():
            assert o["delta"]["count"] == o["proposed"]

    def test_trajectory_unchanged_by_recording(self):
        plain = run_sa(
            small_candidates()[0], SASettings(iterations=15, seed=3)
        )
        diagd = run_sa(
            small_candidates()[0],
            SASettings(iterations=15, seed=3, diag=True),
        )
        assert diagd.best_costs == plain.best_costs
        assert diagd.stats.best_iteration == plain.stats.best_iteration
        assert diagd.stats.operator_uses == plain.stats.operator_uses

    def test_object_and_compiled_paths_record_identically(self):
        settings = SASettings(iterations=15, seed=2, diag=True)
        compiled = run_sa(small_candidates()[0], settings, compiled=True)
        objectp = run_sa(small_candidates()[0], settings, compiled=False)
        assert compiled._population_walk.ceval is not None
        assert objectp._population_walk.ceval is None
        assert compiled.stats.diag == objectp.stats.diag

    def test_batched_proposals_recorded_per_scored_move(self):
        controller = run_sa(
            small_candidates()[0],
            SASettings(iterations=10, seed=4, population=3, diag=True),
        )
        ops = controller.stats.diag["operators"]
        assert sum(o["proposed"] for o in ops.values()) == \
            controller.stats.proposed
        assert sum(o["accepted"] for o in ops.values()) == \
            controller.stats.accepted

    def test_identical_seeds_identical_diag(self):
        settings = SASettings(iterations=12, seed=9, diag=True)
        a = run_sa(small_candidates()[0], settings)
        b = run_sa(small_candidates()[0], settings)
        assert a.stats.diag == b.stats.diag


class TestDigestStability:
    def test_diag_flag_never_changes_store_keys(self):
        assert settings_digest(SASettings(diag=True)) == \
            settings_digest(SASettings())


class TestCandidateRoundTrip:
    def evaluate(self):
        explorer = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=6, seed=11, diag=True),
        )
        return explorer.evaluate_candidate(small_candidates()[0])

    def test_diag_and_operator_uses_round_trip(self):
        result = self.evaluate()
        assert result.operator_uses and result.sa_diag
        (wl_name,) = result.sa_diag
        assert result.sa_diag[wl_name]["restarts"]
        rt = candidate_result_from_dict(candidate_result_to_dict(result))
        assert rt.operator_uses == result.operator_uses
        assert rt.sa_diag == result.sa_diag

    def test_pre_diag_records_still_load(self):
        legacy = candidate_result_to_dict(self.evaluate())
        legacy.pop("operator_uses")
        legacy.pop("sa_diag")
        loaded = candidate_result_from_dict(legacy)
        assert loaded.operator_uses == {}
        assert loaded.sa_diag == {}

    def test_serial_matches_two_workers(self):
        candidates = small_candidates()
        with DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=6, seed=11, diag=True),
        ) as explorer:
            serial = explorer.explore(candidates, workers=1)
            parallel = explorer.explore(candidates, workers=2)
        assert [r.sa_diag for r in serial.results] == \
            [r.sa_diag for r in parallel.results]
        assert [r.operator_uses for r in serial.results] == \
            [r.operator_uses for r in parallel.results]


class TestRendering:
    def test_sa_diag_report(self):
        controller = run_sa(
            small_candidates()[0],
            SASettings(iterations=20, seed=1, diag=True),
        )
        text = render_sa_diag([controller.stats.diag])
        assert "best-cost curve" in text
        assert "accept%" in text

    def test_curve_summary_uses_curve_endpoints(self):
        cs = curve_summary({
            "curve": [[0, 10.0, 10.0], [5, 4.0, 6.0]],
            "curve_stride": 1, "best_iteration": 5,
        })
        assert cs["initial"] == 10.0 and cs["final"] == 4.0
        assert cs["points"] == 2 and cs["spark"]


@pytest.fixture
def diag_campaign(tmp_path):
    """A finished 2-candidate campaign run with diagnostics on."""
    home = tmp_path / "campaigns"
    PERF.reset()
    spec = CampaignSpec(
        name="diagcamp",
        candidates=small_candidates()[:2],
        workloads=[Workload(tiny_graph(), batch=2)],
        sa=SASettings(iterations=6, seed=11, diag=True),
        warm_start=True,
    )
    with CampaignRunner(spec, home) as runner:
        runner.run(workers=1)
    return home


class TestCampaignReport:
    def test_store_only_report_has_curves_and_operator_stats(
        self, diag_campaign
    ):
        data = campaign_view(diag_campaign, "diagcamp")
        assert data["status"]["done"] == 2
        for cand in data["candidates"]:
            assert cand["curves"]
            for cs in cand["curves"].values():
                assert cs["spark"] and cs["points"] > 0
            assert cand["operator_uses"]
        assert data["diag_by_pid"]
        (pid,) = data["diag_by_pid"]
        assert pid == str(os.getpid())
        assert data["iters_to_best"]["cold_runs"] == 2

        text = render_report(data)
        assert "search report" in text
        assert "convergence" in text
        assert "pooled over shards" in text

    def test_cli_report_text_and_json(self, diag_campaign, capsys):
        rc = main(["campaign", "report", "--name", "diagcamp",
                   "--out", str(diag_campaign)])
        assert rc == 0
        assert "search report" in capsys.readouterr().out

        import json

        rc = main(["campaign", "report", "--name", "diagcamp",
                   "--out", str(diag_campaign), "--json"])
        assert rc == 0
        data = json.loads(capsys.readouterr().out)
        assert data["status"]["done"] == 2

    def test_cli_sa_report(self, capsys):
        rc = main(["sa-report", "--model", "MBV2", "--batch", "2",
                   "--iters", "6", "--restarts", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "best-cost curve" in out
        assert "restart" in out
