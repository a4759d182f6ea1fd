"""Heavier CLI command tests (small budgets) and operator reachability."""

import random

import pytest

from repro.arch import ArchConfig
from repro.cli import main
from repro.cli.main import build_parser
from repro.core import LayerGroup
from repro.core.initial import initial_lms
from repro.core.operators import op5_change_flow
from repro.units import GB, MB
from repro.workloads.graph import DNNGraph
from repro.workloads.layer import Layer, LayerType


class TestCliHeatmap:
    def test_heatmap_command_renders_both_schemes(self, capsys):
        code = main([
            "heatmap", "--model", "TF", "--arch", "g-arch",
            "--batch", "8", "--iters", "10",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Tangram SPM" in out
        assert "Gemini SPM" in out
        assert "total_hop_bytes" in out


class TestCliDse:
    def test_dse_writes_results(self, tmp_path, capsys):
        # The quick 72-TOPs grid with a minimal SA budget.
        code = main([
            "dse", "--tops", "72", "--models", "TF", "--batch", "4",
            "--iters", "2", "--out", str(tmp_path / "log"),
        ])
        assert code == 0
        assert (tmp_path / "log" / "result.csv").exists()
        assert (tmp_path / "log" / "best_arch.json").exists()
        out = capsys.readouterr().out
        assert "best architecture:" in out

    def test_failed_candidate_exits_cleanly_naming_it(
        self, tmp_path, monkeypatch
    ):
        from repro.dse import DesignSpaceExplorer
        from repro.errors import SearchError

        real = DesignSpaceExplorer.evaluate_candidate

        def flaky(self, arch, index=0, warm=None):
            if index == 1:
                raise SearchError("injected failure")
            return real(self, arch, index=index, warm=warm)

        monkeypatch.setattr(DesignSpaceExplorer, "evaluate_candidate", flaky)
        with pytest.raises(SystemExit, match="candidate 1 failed: "
                           "SearchError: injected failure"):
            main([
                "dse", "--tops", "72", "--models", "TF", "--batch", "4",
                "--iters", "2", "--max-candidates", "2",
                "--out", str(tmp_path / "log"),
            ])
        assert not (tmp_path / "log" / "result.csv").exists()


class TestOp5Reachability:
    """OP5 can reach every FD value in [0, D] for every explicit slot."""

    def test_all_fd_values_reachable(self):
        g = DNNGraph("g")
        g.add_layer(Layer("a", LayerType.CONV, out_h=8, out_w=8,
                          out_k=8, in_c=3))
        group = LayerGroup(("a",), batch_unit=1)
        arch = ArchConfig(
            cores_x=2, cores_y=2, xcut=1, ycut=1, dram_bw=96 * GB,
            noc_bw=32 * GB, d2d_bw=32 * GB, glb_bytes=1 * MB,
            macs_per_core=1024,
        )
        lms = initial_lms(g, group, arch)
        rng = random.Random(0)
        seen = {"ifmap": set(), "weight": set(), "ofmap": set()}
        current = lms
        for _ in range(300):
            out = op5_change_flow(g, current, rng, n_dram=arch.n_dram)
            if out is not None:
                current = out
            fd = current.scheme("a").fd
            for field in seen:
                value = getattr(fd, field)
                if value >= 0:
                    seen[field].add(value)
        for field, values in seen.items():
            assert values == set(range(arch.n_dram + 1)), field


class TestCliBatchValidation:
    """Every --batch/--batches rejects counts below one at parse time
    (exit 2 with a usage message, never a traceback from the DP)."""

    @pytest.mark.parametrize("argv", [
        ["map", "--model", "TF", "--batch", "0"],
        ["map", "--model", "TF", "--batch", "-4"],
        ["dse", "--batch", "0"],
        ["campaign", "run", "--name", "x", "--batch", "-1"],
        ["heatmap", "--batch", "0"],
        ["sa-report", "--batch", "0"],
        ["sweep", "--batches", "1", "0"],
        ["map", "--batch", "two"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert "--batch" in capsys.readouterr().err

    def test_positive_values_parse(self):
        args = build_parser().parse_args(["sweep", "--batches", "1", "64"])
        assert args.batches == [1, 64]
        assert build_parser().parse_args(["map", "--batch", "3"]).batch == 3


class TestCliIterationValidation:
    """Every ``--iters`` takes a non-negative count at parse time:
    ``sweep --iters -3`` used to run no SA and record ``iters=-3``."""

    @pytest.mark.parametrize("argv", [
        ["dse"], ["map"], ["compare"], ["sweep"],
        ["campaign", "run", "--name", "x"], ["heatmap"], ["sa-report"],
    ])
    def test_negative_rejected_zero_parses(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--iters", "-3"])
        assert exc.value.code == 2
        assert "--iters" in capsys.readouterr().err
        assert build_parser().parse_args(argv + ["--iters", "0"]).iters == 0


class TestCliMaxCandidatesValidation:
    """``--max-candidates`` takes a non-negative count at parse time:
    ``dse --max-candidates -1`` used to drop the grid's last candidate
    instead of keeping its first N."""

    @pytest.mark.parametrize("argv", [
        ["dse"], ["campaign", "run", "--name", "x"],
    ])
    def test_negative_rejected_zero_parses(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv + ["--max-candidates", "-1"])
        assert exc.value.code == 2
        assert "--max-candidates" in capsys.readouterr().err
        args = build_parser().parse_args(argv + ["--max-candidates", "0"])
        assert args.max_candidates == 0


class TestCliCampaignFaultFlags:
    """``campaign run``'s fault flags are checked at parse time:
    ``--fail-after 0`` used to interrupt after one candidate,
    ``--timeout inf`` and ``--backoff inf`` died in an
    ``OverflowError``, and ``--timeout nan`` ran with no deadline."""

    RUN = ["campaign", "run", "--name", "x"]

    @pytest.mark.parametrize("flag,value", [
        ("--fail-after", "0"),
        ("--fail-after", "-2"),
        ("--timeout", "inf"),
        ("--timeout", "nan"),
        ("--timeout", "0"),
        ("--timeout", "-1"),
        ("--backoff", "inf"),
        ("--backoff", "nan"),
        ("--backoff", "-0.5"),
    ])
    def test_rejected(self, flag, value, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(self.RUN + [flag, value])
        assert exc.value.code == 2
        assert flag in capsys.readouterr().err

    def test_valid_values_parse(self):
        args = build_parser().parse_args(self.RUN + [
            "--fail-after", "1", "--timeout", "20", "--backoff", "0",
        ])
        assert (args.fail_after, args.timeout, args.backoff) == (1, 20.0, 0.0)


class TestCliPopulationValidation:
    """--population / --tempering reject counts below one at parse time:
    ``--population 0`` used to run the serial walk under a different
    store digest than ``--population 1``."""

    @pytest.mark.parametrize("argv", [
        ["map", "--population", "0"],
        ["map", "--tempering", "0"],
        ["dse", "--population", "-2"],
        ["dse", "--tempering", "0"],
        ["campaign", "run", "--name", "x", "--population", "0"],
        ["campaign", "run", "--name", "x", "--tempering", "-1"],
        ["map", "--population", "many"],
    ])
    def test_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert argv[-2] in err
        assert "Traceback" not in err

    def test_retired_proposal_batch_flag_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "--proposal-batch", "2"])
        assert exc.value.code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_positive_values_parse(self):
        args = build_parser().parse_args(
            ["map", "--population", "4", "--tempering", "2"]
        )
        assert (args.population, args.tempering) == (4, 2)
