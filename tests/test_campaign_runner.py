"""Campaign crash-resume semantics.

The contract pinned here is the subsystem's reason to exist:

* an interrupted ``run`` resumed with the same arguments re-evaluates
  **zero** completed candidates (the ``dse.candidates`` PERF counter
  equals the pending count exactly);
* the resumed campaign's export is bit-identical to an uninterrupted
  run's;
* a second identical run completes entirely from the store.
"""

import pytest

from repro.campaign import (
    CampaignError,
    CampaignInterrupted,
    CampaignRunner,
    CampaignSpec,
    export_campaign,
)
from repro.campaign.view import campaign_view
from repro.core.sa import SASettings
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
)
from repro.errors import SearchError
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


def make_spec(name="camp", warm_start=True, iterations=6):
    return CampaignSpec(
        name=name,
        candidates=small_candidates(),
        workloads=[Workload(tiny_graph(), batch=2)],
        sa=SASettings(iterations=iterations, seed=11),
        warm_start=warm_start,
    )


def export_bytes(home, name):
    paths = export_campaign(home, name)
    return {label: path.read_bytes() for label, path in paths.items()}


class TestCrashResume:
    def test_interrupt_resume_zero_reevaluation_and_bit_identity(
        self, tmp_path
    ):
        home_a = tmp_path / "uninterrupted"
        home_b = tmp_path / "interrupted"
        n = len(small_candidates())

        with CampaignRunner(make_spec(), home_a) as runner:
            report_a = runner.run(workers=1)
        assert report_a.evaluated == n
        assert report_a.store_hits == 0

        with pytest.raises(CampaignInterrupted):
            with CampaignRunner(make_spec(), home_b) as runner:
                runner.run(workers=1, fail_after=3)

        status = campaign_view(home_b, "camp")["status"]
        assert status["done"] == 3
        assert status["pending"] == n - 3

        # Resume: only the pending candidates are evaluated.
        PERF.reset()
        with CampaignRunner(make_spec(), home_b) as runner:
            report_b = runner.run(workers=1)
        assert report_b.evaluated == n - 3
        assert report_b.store_hits == 3
        assert PERF.get("dse.candidates") == n - 3
        assert PERF.get("campaign.store_hits") == 3

        # The final report is bit-identical to the uninterrupted run's.
        assert export_bytes(home_a, "camp") == export_bytes(home_b, "camp")
        assert [r.score for r in report_a.done] == [
            r.score for r in report_b.done
        ]

        # A second identical run completes entirely from the store.
        PERF.reset()
        with CampaignRunner(make_spec(), home_b) as runner:
            report_c = runner.run(workers=1)
        assert report_c.evaluated == 0
        assert report_c.store_hits == n
        assert PERF.get("dse.candidates") == 0

    def test_parallel_resume_matches_serial(self, tmp_path):
        home_s = tmp_path / "serial"
        home_p = tmp_path / "parallel"
        with CampaignRunner(make_spec(), home_s) as runner:
            runner.run(workers=1)
        with pytest.raises(CampaignInterrupted):
            with CampaignRunner(make_spec(), home_p) as runner:
                runner.run(workers=2, fail_after=2)
        with CampaignRunner(make_spec(), home_p) as runner:
            report = runner.run(workers=2)
        assert report.evaluated + report.store_hits >= len(small_candidates())
        assert export_bytes(home_s, "camp") == export_bytes(home_p, "camp")

    def test_failed_candidates_are_retried(self, tmp_path, monkeypatch):
        home = tmp_path / "camp"
        spec = make_spec()
        real = DesignSpaceExplorer.evaluate_candidate

        def flaky(self, arch, index=0, warm=None):
            if index == 1:
                raise SearchError("injected failure")
            return real(self, arch, index=index, warm=warm)

        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_candidate", flaky)
        with CampaignRunner(spec, home) as runner:
            report = runner.run(workers=1)
        assert report.failed == 1
        assert report.results[1] is None
        view = campaign_view(home, "camp")
        assert view["status"]["failed"] == 1
        assert [f["indices"] for f in view["failures"].values()] == [[1]]

        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_candidate", real)
        with CampaignRunner(make_spec(), home) as runner:
            report = runner.run(workers=1)
        assert report.evaluated == 1  # only the failed one
        assert report.failed == 0
        assert all(r is not None for r in report.results)
        # The failure table follows the store: the success clears it.
        assert campaign_view(home, "camp")["failures"] == {}


class TestWarmStart:
    def test_first_campaign_is_cold(self, tmp_path):
        PERF.reset()
        with CampaignRunner(make_spec(), tmp_path) as runner:
            report = runner.run(workers=1)
        assert not any(r.warm_started for r in report.done)
        assert PERF.get("sa.iters_to_best.warm.runs") == 0
        assert PERF.get("sa.iters_to_best.cold.runs") == len(report.done)

    def test_second_campaign_warm_starts_from_shared_store(self, tmp_path):
        with CampaignRunner(make_spec("one"), tmp_path) as runner:
            runner.run(workers=1)
        PERF.reset()
        spec2 = make_spec("two", iterations=8)
        with CampaignRunner(spec2, tmp_path) as runner:
            report = runner.run(workers=1)
        assert all(r.warm_started for r in report.done)
        assert PERF.get("sa.iters_to_best.warm.runs") == len(report.done)
        # Warm or cold, results stay valid and comparable.
        assert all(r.score > 0 for r in report.done)

    def test_warm_provenance_is_part_of_the_candidate_key(self, tmp_path):
        """A warm-started evaluation is a different computation than a
        cold one, so the two must never share a store record — even
        across homes (the store's last-record-wins merge relies on
        identical keys implying identical payloads)."""
        cold_home = tmp_path / "cold"
        warm_home = tmp_path / "warm"
        with CampaignRunner(make_spec("seed"), warm_home) as runner:
            runner.run(workers=1)
        with CampaignRunner(make_spec("x", iterations=8), cold_home) as r:
            cold_keys = r.candidate_keys
        with CampaignRunner(make_spec("x", iterations=8), warm_home) as r:
            warm_keys = r.candidate_keys
            assert any(sel for sel in r.warm_selection)
        assert set(cold_keys).isdisjoint(warm_keys)

    def test_mc_evaluator_is_part_of_the_candidate_key(self, tmp_path):
        from dataclasses import replace

        from repro.cost.mc import DEFAULT_MC
        from repro.cost.silicon import DEFAULT_SILICON

        explorer = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=4),
        )
        pricier = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=4),
            mc_evaluator=replace(
                DEFAULT_MC,
                silicon=replace(DEFAULT_SILICON, c_silicon_per_mm2=9.0),
            ),
        )
        arch = small_candidates()[0]
        assert explorer.candidate_key(arch) != pricier.candidate_key(arch)

    def test_warm_start_can_be_disabled(self, tmp_path):
        with CampaignRunner(make_spec("one"), tmp_path) as runner:
            runner.run(workers=1)
        with CampaignRunner(
            make_spec("two", warm_start=False), tmp_path
        ) as runner:
            report = runner.run(workers=1)
        assert not any(r.warm_started for r in report.done)

    def test_warm_snapshot_survives_interruption(self, tmp_path):
        """Resumed runs warm-start from the manifest snapshot, so an
        interrupted warm campaign still exports bit-identically to an
        uninterrupted one."""
        with CampaignRunner(make_spec("seed"), tmp_path) as runner:
            runner.run(workers=1)
        spec = lambda: make_spec("warm", iterations=8)  # noqa: E731
        home_b = tmp_path / "other"
        with CampaignRunner(make_spec("seed"), home_b) as runner:
            runner.run(workers=1)
        with CampaignRunner(spec(), home_b) as runner:
            runner.run(workers=1)
        with pytest.raises(CampaignInterrupted):
            with CampaignRunner(spec(), tmp_path) as runner:
                runner.run(workers=1, fail_after=2)
        with CampaignRunner(spec(), tmp_path) as runner:
            runner.run(workers=1)
        assert export_bytes(tmp_path, "warm") == export_bytes(home_b, "warm")


class TestSpecGuards:
    def test_changed_spec_is_rejected(self, tmp_path):
        with CampaignRunner(make_spec(), tmp_path) as runner:
            runner.run(workers=1)
        changed = make_spec(iterations=9)
        with pytest.raises(CampaignError):
            CampaignRunner(changed, tmp_path)

    def test_empty_candidates_rejected(self, tmp_path):
        spec = make_spec()
        spec.candidates = []
        with pytest.raises(CampaignError):
            CampaignRunner(spec, tmp_path)

    def test_status_without_manifest_errors(self, tmp_path):
        with pytest.raises(CampaignError):
            campaign_view(tmp_path, "nope")


class TestCampaignCli:
    def test_run_interrupt_resume_status_export(self, tmp_path, capsys):
        from repro.cli.main import main
        from repro.io.serialization import save_graph

        model = tmp_path / "tiny.json"
        save_graph(tiny_graph(), model)
        common = [
            "campaign", "run", "--name", "smoke",
            "--out", str(tmp_path / "camps"),
            "--max-candidates", "2", "--models", str(model),
            "--batch", "2", "--iters", "2",
        ]
        assert main(common + ["--fail-after", "1"]) == 130
        assert main(common) == 0
        out = capsys.readouterr().out
        assert "served 1 from the store" in out
        assert "best architecture:" in out

        assert main([
            "campaign", "status", "--name", "smoke",
            "--out", str(tmp_path / "camps"),
        ]) == 0
        out = capsys.readouterr().out
        assert "2/2 done, 0 pending" in out

        assert main([
            "campaign", "export", "--name", "smoke",
            "--out", str(tmp_path / "camps"),
        ]) == 0
        export = tmp_path / "camps" / "smoke" / "export"
        for name in ("campaign.csv", "campaign.json",
                     "pareto.csv", "pareto.json"):
            assert (export / name).exists()

    def test_status_on_missing_campaign_exits(self, tmp_path):
        from repro.cli.main import main

        with pytest.raises(SystemExit):
            main(["campaign", "status", "--name", "ghost",
                  "--out", str(tmp_path)])


class TestCandidateRoundTrip:
    def test_store_round_trip_is_bitwise(self):
        from repro.io.serialization import (
            candidate_result_from_dict,
            candidate_result_to_dict,
        )
        import json

        explorer = DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=5, seed=3),
        )
        result = explorer.evaluate_candidate(small_candidates()[0])
        wire = json.loads(json.dumps(candidate_result_to_dict(result)))
        back = candidate_result_from_dict(wire)
        assert back.arch == result.arch
        assert back.score == result.score
        assert back.energy == result.energy
        assert back.delay == result.delay
        assert back.mc.total == result.mc.total
        assert back.per_workload == result.per_workload
        assert back.mappings == result.mappings
