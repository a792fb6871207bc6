"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args([])

    def test_topologies_defaults(self):
        args = build_parser().parse_args(["topologies"])
        assert args.scale == 1.0

    def test_compare_arguments(self):
        args = build_parser().parse_args(
            ["compare", "--topology", "B4", "--matrices", "2"]
        )
        assert args.topology == "B4"
        assert args.matrices == 2

    def test_failures_counts(self):
        args = build_parser().parse_args(
            ["failures", "--counts", "0", "1", "2"]
        )
        assert args.counts == [0, 1, 2]

    def test_sweep_defaults(self):
        args = build_parser().parse_args(["sweep"])
        assert args.topologies == ["B4", "SWAN"]
        assert args.failures == [0, 1]
        assert args.executor == "process"
        assert args.output is None
        assert args.cache_dir is None

    def test_sweep_cache_dir(self):
        args = build_parser().parse_args(["sweep", "--cache-dir", "cache"])
        assert args.cache_dir == "cache"

    def test_cell_batch_flag(self):
        """Every sweep runs fully fused: ``--cell-batch`` is gone."""
        args = build_parser().parse_args(["sweep"])
        assert not hasattr(args, "cell_batch")
        for value in ("0", "4", "many"):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", "--cell-batch", value])

    def test_cell_batch_is_sweep_only(self):
        # No other subcommand ever took the flag.
        for command in ("compare", "failures", "train", "stream"):
            with pytest.raises(SystemExit):
                build_parser().parse_args([command, "--cell-batch", "2"])

    def test_retired_sweep_options_rejected(self):
        for extra in (["--max-cells", "4"], ["--executor", "thread"]):
            with pytest.raises(SystemExit):
                build_parser().parse_args(["sweep", *extra])

    def test_cache_prune_arguments(self):
        args = build_parser().parse_args(
            [
                "cache", "prune",
                "--cache-dir", "cache",
                "--max-bytes", "500M",
                "--dry-run",
            ]
        )
        assert args.cache_dir == "cache"
        assert args.max_bytes == "500M"
        assert args.dry_run is True

    def test_cache_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["cache"])

    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.topology == "B4"
        assert args.matrices == 6
        assert args.schemes == ["Teal"]
        assert args.failures == 0
        assert args.failure_at is None
        assert args.interval_seconds == 300.0
        assert args.cold is False
        assert args.warm_iterations is None

    def test_stream_arguments(self):
        args = build_parser().parse_args(
            [
                "stream",
                "--topology", "SWAN",
                "--schemes", "LP-all", "Teal",
                "--failures", "2",
                "--failure-at", "1",
                "--recover-at", "3",
                "--cold",
                "--output", "stream.json",
            ]
        )
        assert args.topology == "SWAN"
        assert args.schemes == ["LP-all", "Teal"]
        assert args.failures == 2
        assert args.failure_at == 1
        assert args.recover_at == 3
        assert args.cold is True
        assert args.output == "stream.json"

    def test_sweep_arguments(self):
        args = build_parser().parse_args(
            [
                "sweep",
                "--topologies", "B4", "UsCarrier",
                "--failures", "0", "2",
                "--seeds", "0", "1",
                "--mode", "online",
                "--executor", "serial",
                "--output", "grid.json",
            ]
        )
        assert args.topologies == ["B4", "UsCarrier"]
        assert args.failures == [0, 2]
        assert args.seeds == [0, 1]
        assert args.mode == "online"
        assert args.executor == "serial"
        assert args.output == "grid.json"


class TestCommands:
    def test_topologies_runs(self, capsys):
        assert main(["topologies", "--scale", "0.1"]) == 0
        out = capsys.readouterr().out
        for name in ("B4", "SWAN", "UsCarrier", "Kdl", "ASN"):
            assert name in out

    def test_compare_runs_small(self, capsys):
        code = main(
            ["compare", "--topology", "B4", "--matrices", "1", "--seed", "1"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Teal" in out
        assert "LP-all" in out

    def test_sweep_runs_small(self, capsys, tmp_path):
        output = tmp_path / "grid.json"
        code = main(
            [
                "sweep",
                "--topologies", "B4",
                "--failures", "0", "1",
                "--matrices", "2",
                "--train", "4",
                "--validation", "1",
                "--steps", "2",
                "--warm-start-steps", "6",
                "--executor", "serial",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "failures=1" in out
        assert "Teal" in out
        from repro.sweep import GridResult

        result = GridResult.from_json(output)
        assert result.metadata["num_cells"] == 4

    def test_sweep_cache_dir_warm_rerun_matches(self, capsys, tmp_path):
        """A warm --cache-dir rerun loads scenarios/models from disk and
        reproduces the cold run's GridResult exactly."""
        from repro.harness import clear_caches
        from repro.sweep import GridResult

        argv = [
            "sweep",
            "--topologies", "B4",
            "--failures", "0",
            "--matrices", "2",
            "--train", "4",
            "--validation", "1",
            "--steps", "2",
            "--warm-start-steps", "6",
            "--executor", "serial",
            "--cache-dir", str(tmp_path / "cache"),
        ]
        clear_caches()
        assert main(argv + ["--output", str(tmp_path / "cold.json")]) == 0
        clear_caches()  # drop in-memory tiers: the rerun must hit the disk
        assert main(argv + ["--output", str(tmp_path / "warm.json")]) == 0
        capsys.readouterr()
        cold = GridResult.from_json(tmp_path / "cold.json")
        warm = GridResult.from_json(tmp_path / "warm.json")
        assert [c.run.satisfied for c in warm.cells] == [
            c.run.satisfied for c in cold.cells
        ]
        assert (tmp_path / "cache").glob("scenario-*.npz")

    def test_stream_runs_small(self, capsys, tmp_path):
        import json

        output = tmp_path / "stream.json"
        code = main(
            [
                "stream",
                "--topology", "B4",
                "--schemes", "LP-all",
                "--matrices", "3",
                "--failures", "1",
                "--recover-at", "2",
                "--failure-at", "1",
                "--output", str(output),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "LP-all" in out
        assert "p50 lat" in out
        summary = json.loads(output.read_text())
        assert summary["LP-all"]["num_decisions"] == 3
        assert summary["LP-all"]["event_counts"] == {
            "traffic": 3, "failure": 1, "recovery": 1
        }
        assert len(summary["LP-all"]["latencies"]) == 3

    def test_stream_rejects_negative_failure_at(self, capsys):
        code = main(
            [
                "stream",
                "--topology", "B4",
                "--schemes", "LP-all",
                "--matrices", "3",
                "--failures", "1",
                "--failure-at", "-1",
            ]
        )
        assert code == 1
        assert "failure_at must be non-negative" in capsys.readouterr().err

    def test_train_runs_small(self, capsys):
        code = main(
            [
                "train",
                "--topology",
                "B4",
                "--steps",
                "2",
                "--warm-start-steps",
                "10",
            ]
        )
        assert code == 0
        assert "satisfied" in capsys.readouterr().out
