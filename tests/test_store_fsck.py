"""Store integrity checking and repair (``repro store fsck``).

The store's design tolerates exactly one kind of damage — a torn tail
left by a killed writer — and treats everything else as real
corruption.  fsck must agree with that line: torn tails and a stale or
missing (derived) index are *clean*; mid-segment corruption and an
unparseable index are *damage*, repairable by quarantining bad lines
and rebuilding the index from the surviving records.
"""

import json

import pytest

from repro.campaign.fsck import QUARANTINE_DIR, fsck_store, render_fsck
from repro.campaign.store import KIND_CANDIDATE, ResultStore
from repro.perf import PERF


def build_store(root, keys=("k1", "k2", "k3")):
    """A store with one record per key, index written on close."""
    with ResultStore(root) as store:
        for key in keys:
            store.put(KIND_CANDIDATE, key, {"score": key})
    return root


def the_segment(root):
    (seg,) = list((root / "segments").glob("*.jsonl"))
    return seg


class TestScan:
    def test_clean_store(self, tmp_path):
        build_store(tmp_path)
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.live_keys == 3
        assert report.corrupt_lines == 0
        assert report.torn_lines == 0
        assert report.index_status == "ok"
        assert report.lost_keys == []
        assert "store is clean" in render_fsck(report)

    def test_empty_directory_is_clean(self, tmp_path):
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.live_keys == 0
        assert report.index_status == "missing"

    def test_torn_tail_is_tolerated(self, tmp_path):
        build_store(tmp_path)
        seg = the_segment(tmp_path)
        with open(seg, "a") as fh:
            fh.write('{"kind":"candidate","key":"torn-k","pay')
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.torn_lines == 1
        assert report.corrupt_lines == 0
        # The torn record never made it: resume would redo that key.
        assert report.lost_keys == ["torn-k"]
        assert "tolerated torn tail" in render_fsck(report)

    def test_mid_segment_corruption_is_damage(self, tmp_path):
        build_store(tmp_path)
        seg = the_segment(tmp_path)
        lines = seg.read_text().splitlines()
        lines[1] = lines[1][:-10]  # bit-rot inside the k2 record
        seg.write_text("\n".join(lines) + "\n")
        report = fsck_store(tmp_path)
        assert not report.clean
        assert report.corrupt_lines == 1
        assert report.torn_lines == 0
        assert report.live_keys == 2
        assert report.lost_keys == ["k2"]
        # The pre-damage index still names k2: stale, not corrupt.
        assert report.index_status == "stale"
        assert "DAMAGED" in render_fsck(report)

    def test_key_with_a_surviving_record_is_not_lost(self, tmp_path):
        root = build_store(tmp_path)
        # A second writer re-publishes k2 (duplicate appends are fine).
        with ResultStore(root) as store:
            store.put(KIND_CANDIDATE, "k2", {"score": "k2"})
        segments = sorted((root / "segments").glob("*.jsonl"))
        assert len(segments) == 2
        first = segments[0] if "k1" in segments[0].read_text() \
            else segments[1]
        lines = first.read_text().splitlines()
        lines[1] = lines[1][:-10]
        first.write_text("\n".join(lines) + "\n")
        report = fsck_store(root)
        assert report.corrupt_lines == 1
        assert report.lost_keys == []  # k2 survives in the other segment

    def test_corrupt_index_is_damage(self, tmp_path):
        build_store(tmp_path)
        (tmp_path / "index.json").write_text("{not json")
        report = fsck_store(tmp_path)
        assert not report.clean
        assert report.index_status == "corrupt"

    def test_missing_index_is_tolerated(self, tmp_path):
        build_store(tmp_path)
        (tmp_path / "index.json").unlink()
        report = fsck_store(tmp_path)
        assert report.clean
        assert report.index_status == "missing"


class TestRepair:
    def test_repair_quarantines_and_rebuilds(self, tmp_path):
        build_store(tmp_path)
        seg = the_segment(tmp_path)
        lines = seg.read_text().splitlines()
        bad_line = lines[1][:-10]
        lines[1] = bad_line
        seg.write_text("\n".join(lines) + "\n")
        (tmp_path / "index.json").write_text("{not json")

        report = fsck_store(tmp_path, repair=True)
        assert report.repaired
        assert report.clean
        assert report.quarantined_lines == 1
        assert report.index_status == "ok"
        assert "repaired" in render_fsck(report)

        # The bad line is preserved in the sidecar, gone from the
        # segment, and the rebuilt index matches the survivors.
        sidecar = tmp_path / QUARANTINE_DIR / f"{seg.name}.bad"
        assert sidecar.read_text() == bad_line + "\n"
        assert bad_line not in seg.read_text()
        index = json.loads((tmp_path / "index.json").read_text())
        assert sorted(index["keys"][KIND_CANDIDATE]) == ["k1", "k3"]

        # A fresh scan agrees, and the loader sees zero skipped lines.
        again = fsck_store(tmp_path)
        assert again.clean
        assert again.corrupt_lines == 0
        assert again.index_status == "ok"
        with ResultStore(tmp_path) as store:
            assert store.skipped_lines == 0
            assert store.keys(KIND_CANDIDATE) == {"k1", "k3"}

    def test_repair_tidies_a_torn_tail_too(self, tmp_path):
        build_store(tmp_path)
        seg = the_segment(tmp_path)
        with open(seg, "a") as fh:
            fh.write('{"kind":"candidate","key":"torn-k","pay')
        report = fsck_store(tmp_path, repair=True)
        assert report.repaired
        assert report.quarantined_lines == 1
        with ResultStore(tmp_path) as store:
            assert store.skipped_lines == 0
            assert len(store.keys(KIND_CANDIDATE)) == 3


class TestCli:
    def run_cli(self, argv):
        import importlib

        cli = importlib.import_module("repro.cli.main")
        return cli.main(argv)

    def test_exit_codes_across_damage_and_repair(self, tmp_path, capsys):
        home = tmp_path / "campaigns"
        build_store(home / "store")
        assert self.run_cli(
            ["store", "fsck", "--out", str(home)]
        ) == 0

        seg = the_segment(home / "store")
        lines = seg.read_text().splitlines()
        lines[0] = lines[0][:-10]
        seg.write_text("\n".join(lines) + "\n")
        assert self.run_cli(["store", "fsck", "--out", str(home)]) == 1
        out = capsys.readouterr().out
        assert "DAMAGED" in out
        assert "--repair" in out

        assert self.run_cli(
            ["store", "fsck", "--out", str(home), "--repair"]
        ) == 0
        assert self.run_cli(["store", "fsck", "--out", str(home)]) == 0

    def test_store_override_and_missing_root(self, tmp_path):
        build_store(tmp_path / "elsewhere")
        assert self.run_cli(
            ["store", "fsck", "--store", str(tmp_path / "elsewhere")]
        ) == 0
        with pytest.raises(SystemExit):
            self.run_cli(["store", "fsck", "--out", str(tmp_path / "nope")])


class TestDurability:
    def test_write_index_is_best_effort(self, tmp_path, monkeypatch):
        from repro.campaign import store as store_mod

        store = ResultStore(tmp_path)
        store.put(KIND_CANDIDATE, "k", {"score": 1})

        def boom(path, data):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(store_mod, "atomic_write_json", boom)
        PERF.reset()
        assert store.write_index() is None
        assert PERF.get("store.index.errors") == 1
        store.close()  # close() must not raise either
        monkeypatch.undo()
        # The records themselves survived; fsck only sees a stale or
        # missing derived index.
        report = fsck_store(tmp_path)
        assert report.live_keys == 1
        assert report.clean

    def test_corrupt_manifest_recovers(self, tmp_path):
        """A trashed manifest fails status loudly but does not brick
        the campaign: the runner rebuilds it from the spec, and the
        store still serves every completed candidate."""
        from repro.campaign import (
            CampaignError,
            CampaignRunner,
            CampaignSpec,
        )
        from repro.campaign.view import campaign_view
        from repro.core.sa import SASettings
        from repro.dse import (
            DseGrid,
            Workload,
            enumerate_candidates,
        )
        from repro.workloads.graph import DNNGraph
        from repro.workloads.layer import Layer, LayerType

        g = DNNGraph("t")
        g.add_layer(Layer("l0", LayerType.CONV, out_h=8, out_w=8,
                          out_k=16, in_c=3, kernel_r=3, kernel_s=3,
                          pad_h=1, pad_w=1))
        grid = DseGrid(
            tops=8, cuts=(1,), dram_bw_per_tops=(1.0,),
            noc_bw_gbps=(32,), d2d_ratio=(0.5,), glb_kb=(512,),
            macs_per_core=(1024,),
        )

        def spec():
            return CampaignSpec(
                name="camp",
                candidates=enumerate_candidates(grid),
                workloads=[Workload(g, batch=1)],
                sa=SASettings(iterations=4, seed=7),
                warm_start=False,
            )

        with CampaignRunner(spec(), tmp_path) as runner:
            first = runner.run(workers=1)
        assert first.evaluated >= 1

        manifest = tmp_path / "camp" / "manifest.json"
        manifest.write_text("{definitely not json")
        with pytest.raises(CampaignError, match="corrupt"):
            campaign_view(tmp_path, "camp")

        PERF.reset()
        with CampaignRunner(spec(), tmp_path) as runner:
            report = runner.run(workers=1)
        assert PERF.get("campaign.manifest.corrupt") >= 1
        assert report.evaluated == 0
        assert report.store_hits == first.evaluated
        # The manifest is whole again; status works.
        assert campaign_view(tmp_path, "camp")["status"]["done"] == \
            first.evaluated
