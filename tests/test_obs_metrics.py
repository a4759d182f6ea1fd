"""Metrics export: Prometheus exposition and JSON forms of a snapshot,
and the CLI's one export path (``--metrics``) beside ``--profile``."""

import json
import re

import pytest

from repro.cli.main import main
from repro.obs.metrics import (
    _metric_name,
    metrics_json,
    prometheus_text,
    write_metrics,
)

SNAP = {
    "pid": 1234,
    "counters": {
        "dse.candidates": 4,
        "store.hits": 2,
        "weird name!*": 1.5,
    },
    "timers": {
        "sa.run": {"seconds": 2.5, "calls": 3},
    },
    "spans": [{"name": "x"}],
}


class TestNames:
    def test_sanitize_keeps_prometheus_charset(self):
        assert _metric_name("dse.candidates") == "repro_dse_candidates"
        assert _metric_name("weird name!*") == "repro_weird_name__"
        assert _metric_name("lru.route-cache.hits") == \
            "repro_lru_route_cache_hits"


class TestPrometheusText:
    def test_counters_and_timers_become_samples(self):
        text = prometheus_text(SNAP)
        lines = text.splitlines()
        assert "repro_dse_candidates 4" in lines
        assert "repro_store_hits 2" in lines
        assert "repro_weird_name__ 1.5" in lines
        assert "repro_sa_run_seconds_total 2.5" in lines
        assert "repro_sa_run_calls_total 3" in lines
        # integers print without a trailing .0
        assert "repro_dse_candidates 4.0" not in lines

    def test_every_sample_has_help_and_type(self):
        lines = prometheus_text(SNAP).splitlines()
        samples = [ln for ln in lines if not ln.startswith("#")]
        helps = [ln for ln in lines if ln.startswith("# HELP ")]
        types = [ln for ln in lines if ln.startswith("# TYPE ")]
        assert len(samples) == len(helps) == len(types) == 5
        assert all(ln.endswith(" counter") for ln in types)

    def test_output_is_deterministic_and_sorted(self):
        a = prometheus_text(SNAP)
        b = prometheus_text(dict(SNAP))
        assert a == b
        samples = [ln.split()[0] for ln in a.splitlines()
                   if not ln.startswith("#")]
        # Counters come first (sorted), then per-timer sample pairs
        # (labels sorted, seconds before calls).
        assert samples == [
            "repro_dse_candidates", "repro_store_hits",
            "repro_weird_name__",
            "repro_sa_run_seconds_total", "repro_sa_run_calls_total",
        ]

    def test_spans_and_pid_never_leak(self):
        text = prometheus_text(SNAP)
        assert "span" not in text
        assert "1234" not in text

    def test_empty_snapshot_is_empty_text(self):
        assert prometheus_text({"counters": {}, "timers": {}}) == ""


class TestJsonAndFiles:
    def test_metrics_json_strips_spans_and_pid(self):
        data = json.loads(metrics_json(SNAP))
        assert set(data) == {"counters", "timers"}
        assert data["counters"]["dse.candidates"] == 4
        assert data["timers"]["sa.run"]["calls"] == 3
        assert metrics_json(SNAP) == metrics_json(dict(SNAP))

    def test_write_metrics_dispatches_on_suffix(self, tmp_path):
        prom = tmp_path / "m.prom"
        txt = tmp_path / "m.txt"
        js = tmp_path / "m.json"
        for p in (prom, txt, js):
            write_metrics(p, SNAP)
        assert prom.read_text().startswith("# HELP ")
        assert txt.read_text() == prom.read_text()
        assert json.loads(js.read_text())["counters"]["store.hits"] == 2


#: A tiny run of every command that takes ``--profile``.
PROFILED = {
    "map": ["map", "--iters", "4"],
    "dse": ["dse", "--models", "MBV2", "--batch", "1", "--iters", "4",
            "--max-candidates", "1", "--out", "d"],
    "sweep": ["sweep", "--models", "MBV2", "--batches", "1", "--iters", "4",
              "--out", "sw"],
    "campaign-run": ["campaign", "run", "--name", "c", "--out", "camps",
                     "--max-candidates", "1", "--models", "MBV2",
                     "--batch", "1", "--iters", "4"],
    "sa-report": ["sa-report", "--model", "MBV2", "--batch", "1",
                  "--iters", "4"],
}


class TestCliExport:
    @pytest.mark.parametrize("command", sorted(PROFILED))
    def test_profile_prints_and_metrics_is_the_only_export(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        argv = PROFILED[command] + ["--profile", "--metrics", "m.json"]
        assert main(argv) == 0
        out = capsys.readouterr().out
        # The counter/timer table, then the cache table.
        assert re.search(r"^counter +sa\.iterations +\d", out, re.M)
        assert re.search(r"^timer +sa\.run +[\d.]+s x\d", out, re.M)
        assert re.search(r"^lru\.compiled\.layers +\d+ +\d+ +[\d.]+%",
                         out, re.M)
        data = json.loads((tmp_path / "m.json").read_text())
        assert data["timers"]["sa.run"]["calls"] >= 1
        assert data["counters"]["lru.compiled.layers.hits"] > 0
        assert not list(tmp_path.rglob("BENCH_perf.json"))
