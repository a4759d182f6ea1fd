"""Span tracer: nesting, bounds, the worker snapshot channel, export."""

import os

import pytest

from repro.core.sa import SASettings
from repro.dse import (
    DesignSpaceExplorer,
    DseGrid,
    Workload,
    enumerate_candidates,
)
from repro.obs.report import validate_chrome_trace
from repro.obs.trace import _NULL, TRACER, Tracer, trace
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


@pytest.fixture
def tracer():
    """The global tracer, enabled for one test and restored after."""
    was = TRACER.enabled
    TRACER.clear()
    TRACER.enable()
    yield TRACER
    TRACER.enabled = was
    TRACER.clear()


class TestSpans:
    def test_disabled_trace_is_a_shared_noop(self):
        assert not TRACER.enabled
        cm = trace("anything", k=1)
        assert cm is _NULL
        assert trace("other") is _NULL
        with cm:
            pass
        assert TRACER.spans == []

    def test_nested_spans_link_parent_and_keep_attrs(self, tracer):
        with trace("outer", stage="a"):
            with trace("inner", k=3):
                pass
        inner, outer = tracer.spans
        assert inner["name"] == "inner"
        assert outer["name"] == "outer"
        assert outer["parent"] == -1
        assert inner["parent"] == outer["sid"]
        assert inner["attrs"] == {"k": 3}
        assert outer["attrs"] == {"stage": "a"}
        assert inner["pid"] == outer["pid"] == os.getpid()
        assert inner["dur"] >= 0 and inner["cpu"] >= 0
        assert outer["dur"] >= inner["dur"]

    def test_siblings_share_a_parent(self, tracer):
        with trace("root"):
            with trace("a"):
                pass
            with trace("b"):
                pass
        a, b, root = tracer.spans
        assert a["parent"] == root["sid"]
        assert b["parent"] == root["sid"]
        assert a["sid"] != b["sid"]

    def test_bounded_buffer_drops_newest_and_counts(self):
        local = Tracer(max_spans=2)
        local.enable()
        before = PERF.get("obs.trace.dropped")
        for i in range(4):
            with local.trace(f"s{i}"):
                pass
        assert len(local.spans) == 2
        assert local.dropped == 2
        assert PERF.get("obs.trace.dropped") == before + 2
        assert [s["name"] for s in local.spans] == ["s0", "s1"]


class TestSnapshotChannel:
    def test_tracer_merge_preserves_the_worker_pid(self, tracer):
        with trace("work", unit=1):
            pass
        # Spans travel beside the PERF snapshot, never inside it.
        snap = PERF.snapshot()
        assert set(snap) == {"counters", "timers", "pid"}
        assert snap["pid"] == os.getpid()
        spans = tracer.snapshot()
        assert [s["name"] for s in spans] == ["work"]
        assert spans[0]["pid"] == os.getpid()

        # A fake worker hand-off: same span, foreign pid.  merge() must
        # keep the worker's attribution, not re-stamp the parent's.
        worker_span = dict(spans[0], pid=424242)
        tracer.clear()
        TRACER.merge([worker_span])
        assert len(tracer.spans) == 1
        assert tracer.spans[0]["pid"] == 424242
        assert tracer.spans[0]["attrs"] == {"unit": 1}

    def test_disabled_tracer_ships_no_spans_key(self):
        assert not TRACER.enabled
        assert "spans" not in PERF.snapshot()


class TestChromeExport:
    def test_chrome_trace_shape_and_rebased_timestamps(self, tracer):
        with trace("outer"):
            with trace("inner"):
                pass
        doc = tracer.chrome_trace()
        events = validate_chrome_trace(doc)
        complete = [e for e in events if e["ph"] == "X"]
        meta = [e for e in events if e["ph"] == "M"]
        assert {e["name"] for e in complete} == {"outer", "inner"}
        assert min(e["ts"] for e in complete) == 0.0
        for e in complete:
            assert {"sid", "parent", "cpu_ms"} <= set(e["args"])
        assert meta and meta[0]["name"] == "process_name"
        assert any("main" in e["args"]["name"] for e in meta)
        assert doc["displayTimeUnit"] == "ms"

    def test_write_chrome_trace_is_loadable(self, tracer, tmp_path):
        import json

        with trace("x"):
            pass
        path = tmp_path / "trace.json"
        tracer.write_chrome_trace(path)
        validate_chrome_trace(json.loads(path.read_text()))


class TestParallelTracing:
    def test_parallel_explore_spans_cover_multiple_pids(self, tracer):
        """The acceptance property: a ``--trace`` of a 2-worker DSE run
        holds correctly parented spans from at least two pids."""
        candidates = small_candidates()
        with DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=6, seed=11),
        ) as explorer:
            explorer.explore(candidates, workers=2)

        events = [e for e in tracer.chrome_trace()["traceEvents"]
                  if e["ph"] == "X"]
        pids = {e["pid"] for e in events}
        parent_pid = os.getpid()
        assert parent_pid in pids
        assert len(pids) >= 2

        # The parent recorded the orchestration span...
        assert any(e["name"] == "dse.explore" and e["pid"] == parent_pid
                   for e in events)
        # ...and each worker's spans form a correctly parented chain:
        # candidate (root) -> map -> sa.restart -> sa.run.
        worker_pids = pids - {parent_pid}
        for wpid in worker_pids:
            spans = {e["args"]["sid"]: e for e in events
                     if e["pid"] == wpid}
            cands = [e for e in spans.values() if e["name"] == "candidate"]
            assert cands, f"worker {wpid} shipped no candidate span"
            for cand in cands:
                assert cand["args"]["parent"] == -1
            maps = [e for e in spans.values() if e["name"] == "map"]
            assert maps
            for m in maps:
                assert spans[m["args"]["parent"]]["name"] == "candidate"
            runs = [e for e in spans.values() if e["name"] == "sa.run"]
            assert runs
            for r in runs:
                assert spans[r["args"]["parent"]]["name"] == "sa.restart"

    def test_pool_workers_ship_each_span_once(self, tracer):
        """Two explores on one persistent pool: a worker clears its
        spans before every task, so each candidate span arrives once."""
        candidates = small_candidates()
        with DesignSpaceExplorer(
            [Workload(tiny_graph(), batch=2)],
            sa_settings=SASettings(iterations=4, seed=11),
        ) as explorer:
            explorer.explore(candidates, workers=2)
            explorer.explore(candidates, workers=2)
        spans = [s for s in tracer.spans if s["name"] == "candidate"]
        assert len(spans) == 2 * len(candidates)
        assert len({s["pid"] for s in spans}) >= 2
