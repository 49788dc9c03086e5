"""The memo CLI: argument parsing and end-to-end runs."""

import pytest

from repro.memo.cli import build_parser, main
from repro.obs import read_ledger


class TestParser:
    def test_all_subcommands_exist(self):
        parser = build_parser()
        for bench in ("latency", "chase", "bw", "random", "movdir", "dsa"):
            args = parser.parse_args([bench])
            assert args.bench == bench

    def test_missing_subcommand_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_scheme_filter(self):
        args = build_parser().parse_args(["latency", "--scheme", "CXL"])
        assert args.scheme == ["CXL"]

    def test_thread_list(self):
        args = build_parser().parse_args(["bw", "--threads", "1", "8"])
        assert args.threads == [1, 8]

    @pytest.mark.parametrize("bench", ["bw", "random"])
    @pytest.mark.parametrize("flag", [
        ["--jobs", "2"], ["--unit-timeout", "5"], ["--retries", "1"],
        ["--fail-fast"]], ids=lambda flag: flag[0].lstrip("-"))
    def test_no_pool_or_supervision_flags(self, bench, flag, capsys):
        """The curves are closed forms computed in-process: there is
        no worker pool to size and no unit to supervise."""
        with pytest.raises(SystemExit) as excinfo:
            main([bench, "--no-ledger", *flag])
        assert excinfo.value.code == 2
        assert flag[0] in capsys.readouterr().err


class TestEndToEnd:
    def test_latency_run(self, capsys):
        assert main(["latency"]) == 0
        out = capsys.readouterr().out
        assert "DDR5-L8" in out and "CXL" in out

    def test_bw_run_with_few_threads(self, capsys):
        assert main(["bw", "--threads", "1", "2", "--scheme", "CXL"]) == 0
        out = capsys.readouterr().out
        assert "fig3-CXL" in out

    def test_unknown_scheme_exits(self):
        with pytest.raises(SystemExit):
            main(["latency", "--scheme", "HBM"])

    def test_dsa_run(self, capsys):
        assert main(["dsa", "--batches", "1", "16"]) == 0
        out = capsys.readouterr().out
        assert "dsa-async-b16" in out

    def test_replay_run(self, capsys):
        assert main(["replay", "--pattern", "random", "--kind", "nt-st",
                     "--lines", "512", "--scheme", "CXL"]) == 0
        out = capsys.readouterr().out
        assert "estimated bandwidth" in out

    def test_replay_defaults(self, capsys):
        assert main(["replay", "--lines", "256"]) == 0
        out = capsys.readouterr().out
        assert "sequential" in out


class TestLedger:
    @pytest.mark.parametrize("flags, digest", [
        (["--metrics"], "32957f1812dc"), ([], None)],
        ids=["metrics", "no-metrics"])
    def test_metrics_digest(self, tmp_path, monkeypatch, capsys, flags,
                            digest):
        ledger = tmp_path / "runs.jsonl"
        monkeypatch.setenv("REPRO_LEDGER_PATH", str(ledger))
        assert main(["bw", "--scheme", "CXL", "--threads", "1", "2",
                     *flags]) == 0
        capsys.readouterr()
        (record,) = read_ledger(ledger)
        assert record["metrics_digest"] == digest
        assert record["exit_code"] == 0


class TestTelemetryFlags:
    def test_bw_trace_writes_valid_files(self, tmp_path, capsys):
        import json

        from repro.telemetry.report import (
            trace_track_names,
            validate_chrome_trace,
        )

        trace = tmp_path / "out.json"
        assert main(["bw", "--threads", "1", "2", "--scheme", "CXL",
                     "--trace", str(trace), "--metrics"]) == 0
        out = capsys.readouterr().out
        assert "telemetry metrics" in out
        obj = validate_chrome_trace(json.loads(trace.read_text()))
        # The acceptance bar: events from >= 4 distinct component tracks.
        assert len(trace_track_names(obj)) >= 4
        metrics = json.loads(
            (tmp_path / "out.metrics.json").read_text())
        assert "cxl.e2e.read.latency_ns" in metrics

    def test_replay_trace(self, tmp_path, capsys):
        trace = tmp_path / "replay.json"
        assert main(["replay", "--lines", "256",
                     "--trace", str(trace)]) == 0
        assert trace.exists()

    def test_metrics_only_no_files(self, tmp_path, capsys):
        # The latency bench is purely analytic: enabling metrics is
        # valid but yields an empty table, and no files are written.
        assert main(["latency", "--metrics"]) == 0
        assert "no metrics recorded" in capsys.readouterr().out
        assert list(tmp_path.iterdir()) == []
