"""Smoke test of the benchmark: every workload at a tiny scale, untraced
and traced, plus the refusal to run without the program's sources."""

import json
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
POOLED = ("table1-campaign", "fabric-sweep")


def bench(*args, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.fixture(scope="module")
def runs(tmp_path_factory):
    """``(workload, trace) -> final JSON line`` of one tiny run each."""
    out = tmp_path_factory.mktemp("bench")

    def run(workload, trace):
        proc = bench("--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace), "--scale", "0.02", "--out",
                     str(out))
        assert proc.returncode == 0, proc.stdout + proc.stderr
        return json.loads(proc.stdout.strip().splitlines()[-1])

    with ThreadPoolExecutor(2) as pool:
        futures = {(w, t): pool.submit(run, w, t)
                   for w in WORKLOADS for t in (0, 1)}
        results = {key: f.result() for key, f in futures.items()}
    results["runs_dir"] = out / "runs"
    return results


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", (0, 1))
def test_every_metric_emitted_with_its_unit(runs, workload, trace):
    result = runs[workload, trace]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in spec]
    for m in spec:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        if not trace:
            assert got["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_pass_is_valid(runs, workload):
    metrics = {k: m["value"] for k, m in runs[workload, 1]["metrics"].items()}
    assert metrics["obs.trace.dropped"] == 0
    assert metrics["obs.trace.spans"] > 0
    assert 0 <= metrics["obs.trace.unwrapped_frac"] < 0.05
    assert 0 <= metrics["obs.trace_overhead_frac"] < 0.05
    if workload in POOLED and len(os.sched_getaffinity(0)) >= 2:
        assert metrics["obs.trace.pids"] >= 2


def test_compare_a_run_set_against_itself(runs):
    proc = bench(str(runs["runs_dir"]), str(runs["runs_dir"]),
                 script=BENCH / "compare.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "worse" not in proc.stdout
    assert proc.stdout.count("within bound") == len(WORKLOADS) * len(
        SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path,
                 script=tmp_path / "bench" / "run.py")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
