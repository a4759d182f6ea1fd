"""``run_sweep(resume=True)``: the store-backed incremental sweep."""

import pytest

from repro.frontend import Scenario, run_sweep
from repro.io.serialization import save_graph
from repro.perf import PERF
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


@pytest.fixture()
def model_path(tmp_path):
    g = DNNGraph("tiny")
    prev = None
    for i in range(3):
        g.add_layer(
            Layer(f"l{i}", LayerType.CONV, out_h=8, out_w=8, out_k=32,
                  in_c=3 if prev is None else 32, kernel_r=3, kernel_s=3,
                  pad_h=1, pad_w=1),
            inputs=[prev] if prev else None,
        )
        prev = f"l{i}"
    path = tmp_path / "tiny.json"
    save_graph(g, path)
    return str(path)


def scen(model_path, name, batch=1, iters=4):
    return Scenario(name=name, model=model_path, batch=batch, iters=iters)


class TestSweepResume:
    def test_rerun_is_fully_served_from_store(self, tmp_path, model_path):
        out = tmp_path / "sweep"
        scenarios = [scen(model_path, "a", 1), scen(model_path, "b", 2)]
        PERF.reset()
        first = run_sweep(scenarios, out_dir=out, resume=True)
        assert PERF.get("sweep.evaluated") == 2
        assert PERF.get("sweep.store_hits") == 0
        csv_first = (out / "sweep.csv").read_bytes()

        PERF.reset()
        second = run_sweep(scenarios, out_dir=out, resume=True)
        assert PERF.get("sweep.evaluated") == 0
        assert PERF.get("sweep.store_hits") == 2
        assert (out / "sweep.csv").read_bytes() == csv_first
        assert [s["delay_s"] for s in first] == [
            s["delay_s"] for s in second
        ]

    def test_added_scenario_only_evaluates_the_new_one(
        self, tmp_path, model_path
    ):
        out = tmp_path / "sweep"
        scenarios = [scen(model_path, "a", 1), scen(model_path, "b", 2)]
        run_sweep(scenarios, out_dir=out, resume=True)
        PERF.reset()
        extended = scenarios + [scen(model_path, "c", 4)]
        summaries = run_sweep(extended, out_dir=out, resume=True)
        assert PERF.get("sweep.evaluated") == 1
        assert PERF.get("sweep.store_hits") == 2
        assert [s["name"] for s in summaries] == ["a", "b", "c"]

    def test_scenario_name_is_cosmetic(self, tmp_path, model_path):
        out = tmp_path / "sweep"
        run_sweep([scen(model_path, "old-name", 1)], out_dir=out, resume=True)
        PERF.reset()
        summaries = run_sweep(
            [scen(model_path, "new-name", 1)], out_dir=out, resume=True
        )
        assert PERF.get("sweep.store_hits") == 1
        assert PERF.get("sweep.evaluated") == 0
        assert summaries[0]["name"] == "new-name"

    def test_hit_materializes_artifacts_under_new_name(
        self, tmp_path, model_path
    ):
        """A renamed scenario is served from the store but must still
        get its artifact directory (summary.json + mapping.json)."""
        out = tmp_path / "sweep"
        run_sweep([scen(model_path, "old-name", 1)], out_dir=out,
                  resume=True)
        run_sweep([scen(model_path, "new-name", 1)], out_dir=out,
                  resume=True)
        import json

        sc_dir = out / "new-name"
        summary = json.loads((sc_dir / "summary.json").read_text())
        assert summary["name"] == "new-name"
        assert (sc_dir / "mapping.json").exists()
        from repro.io.serialization import load_mapping

        assert load_mapping(sc_dir / "mapping.json")

    def test_interrupted_sweep_keeps_checkpointed_scenarios(
        self, tmp_path, model_path, monkeypatch
    ):
        """A crash mid-sweep must not lose already-evaluated scenarios."""
        import repro.frontend.scenarios as sc_mod

        out = tmp_path / "sweep"
        scenarios = [scen(model_path, "a", 1), scen(model_path, "b", 2)]
        real = sc_mod._run_scenario_full

        def explode_on_b(scenario, *args):
            if scenario.name == "b":
                raise RuntimeError("killed mid-sweep")
            return real(scenario, *args)

        monkeypatch.setattr(sc_mod, "_run_scenario_full", explode_on_b)
        with pytest.raises(RuntimeError):
            run_sweep(scenarios, out_dir=out, resume=True)
        monkeypatch.setattr(sc_mod, "_run_scenario_full", real)

        PERF.reset()
        run_sweep(scenarios, out_dir=out, resume=True)
        assert PERF.get("sweep.store_hits") == 1   # "a" survived the crash
        assert PERF.get("sweep.evaluated") == 1    # only "b" re-runs

    def test_changed_budget_is_a_miss(self, tmp_path, model_path):
        out = tmp_path / "sweep"
        run_sweep([scen(model_path, "a", 1, iters=4)], out_dir=out,
                  resume=True)
        PERF.reset()
        run_sweep([scen(model_path, "a", 1, iters=6)], out_dir=out,
                  resume=True)
        assert PERF.get("sweep.evaluated") == 1

    def test_resume_needs_out_dir(self, model_path):
        with pytest.raises(ValueError):
            run_sweep([scen(model_path, "a")], out_dir=None, resume=True)

    def test_resume_matches_non_resume_results(self, tmp_path, model_path):
        scenarios = [scen(model_path, "a", 1), scen(model_path, "b", 2)]
        plain = run_sweep(scenarios, out_dir=tmp_path / "plain")
        resumed = run_sweep(
            scenarios, out_dir=tmp_path / "resumed", resume=True
        )
        for p, r in zip(plain, resumed):
            assert p["delay_s"] == r["delay_s"]
            assert p["energy_j"] == r["energy_j"]
