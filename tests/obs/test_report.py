"""repro-report: deterministic rendering and the baseline regression gate.

Two acceptance criteria from the PR are pinned here:

* the rendered report is byte-identical across two runs over the same
  inputs (``test_report_byte_identical_across_runs``);
* ``--baseline`` exits non-zero when a bench metric regresses past the
  threshold (``test_baseline_gate_exits_nonzero_on_bench_regression``).

Bench fixtures have the shape ``benchmarks/bench_to_json.py`` writes
from perfbench's ``results.json``.
"""

import json

import pytest

from repro.obs import EXIT_FAILED_CHECKS, EXIT_OK, append_record, run_record
from repro.obs.report import (
    BenchHistoryError,
    bench_metric_trends,
    build_baseline,
    build_report,
    find_regressions,
    load_bench_histories,
    load_experiments,
    main,
    markdown_to_html,
)


def experiment_json(eid="fig3", passed=True, checks=None):
    if checks is None:
        checks = [{"claim": "latency ratio in range", "passed": passed,
                   "measured": "2.5x"}]
    return {"experiment_id": eid, "passed": passed, "checks": checks}


def write_results(tmp_path, experiments):
    results = tmp_path / "results"
    results.mkdir(exist_ok=True)
    for data in experiments:
        (results / f"{data['experiment_id']}.json").write_text(
            json.dumps(data))
    return results


def summary(median, spread=0.02):
    """A perfbench metric summary with quartiles ``spread`` around it."""
    return {"median": median, "q1": median * (1 - spread),
            "q3": median * (1 + spread), "n": 5}


def bench_entry(label="local", wall_s=5.0, spread=0.02, host_wall_s=7.0):
    return {"label": label, "recorded_at": "2026-10-01T00:00:00Z",
            "host": {"cpus": 2}, "seed": 7,
            "workloads": {"paper-figs": {
                "wall_s": summary(wall_s, spread),
                "peak_rss_mb": summary(48.0, 0.001),
                "host_wall_s": summary(host_wall_s, spread)}}}


def write_bench(tmp_path, label="local", wall_s=5.0, history=None,
                **kwargs):
    if history is None:
        history = [bench_entry(label, wall_s, **kwargs)]
    (tmp_path / f"BENCH_{label}.json").write_text(
        json.dumps({"label": label, "history": history}))
    return history[-1]


def trends(*wall_summaries):
    return {"local.paper-figs.wall_s": list(wall_summaries)}


def baseline_of(**bench):
    return {"schema": 2, "experiments": {},
            "bench": {metric: {key: value[key]
                               for key in ("median", "q1", "q3")}
                      for metric, value in bench.items()}}


def write_ledger(tmp_path):
    path = tmp_path / "runs.jsonl"
    for wall in (0.6, 0.4):
        append_record(run_record(
            tool="repro-experiments", argv=["fig3"], ids=["fig3"],
            started_at="2026-08-06T00:00:00Z", wall_s=wall,
            rev="abc1234",
            verdicts={"fig3": {"passed": True, "wall_s": wall,
                               "cached": False}}), path)
    return path


class TestLoading:
    def test_load_experiments_skips_non_verdict_json(self, tmp_path):
        results = write_results(tmp_path, [experiment_json()])
        (results / "fig3.metrics.json").write_text("{}")
        (results / "fig3.profile.json").write_text("{}")
        (results / "junk.json").write_text("not json")
        (results / "other.json").write_text('{"random": true}')
        assert list(load_experiments(results)) == ["fig3"]

    @pytest.mark.parametrize("name, text, problem", [
        ("BENCH_junk.json", "{nope", "not readable JSON"),
        ("BENCH_flat.json", json.dumps(bench_entry("flat")),
         "has no history list"),
    ], ids=["not-json", "no-history"])
    def test_a_file_that_is_not_a_history_is_refused(self, tmp_path, name,
                                                     text, problem):
        write_bench(tmp_path, label="kept")
        (tmp_path / name).write_text(text)
        with pytest.raises(BenchHistoryError, match=problem) as info:
            load_bench_histories(tmp_path)
        assert name in str(info.value)

    def test_bench_trends_flatten_history_in_order(self, tmp_path):
        write_bench(tmp_path, history=[bench_entry(wall_s=6.0),
                                       bench_entry(wall_s=4.0)])
        got = bench_metric_trends(load_bench_histories(tmp_path))
        assert [s["median"] for s in got["local.paper-figs.wall_s"]] \
            == [6.0, 4.0]
        assert got["local.paper-figs.wall_s"][-1] == summary(4.0)
        assert sorted(got) == ["local.paper-figs.host_wall_s",
                               "local.paper-figs.peak_rss_mb",
                               "local.paper-figs.wall_s"]


class TestDeterminism:
    def test_report_byte_identical_across_runs(self, tmp_path, capsys,
                                               monkeypatch):
        """Acceptance: same inputs => byte-identical md and html."""
        write_results(tmp_path, [experiment_json("fig3"),
                                 experiment_json("table1")])
        write_bench(tmp_path)
        ledger = write_ledger(tmp_path)
        monkeypatch.chdir(tmp_path)

        def render(tag):
            out_md = tmp_path / f"{tag}.md"
            out_html = tmp_path / f"{tag}.html"
            assert main(["--results", str(tmp_path / "results"),
                         "--ledger", str(ledger),
                         "--bench", str(tmp_path),
                         "--out", str(out_md),
                         "--html", str(out_html)]) == EXIT_OK
            capsys.readouterr()
            return out_md.read_bytes(), out_html.read_bytes()

        assert render("first") == render("second")

    def test_report_contains_all_sections(self, tmp_path):
        report = build_report(
            experiments={"fig3": experiment_json()},
            metrics={"fig3": {"m": 1}},
            ledger=[json.loads(line) for line
                    in write_ledger(tmp_path).read_text().splitlines()],
            bench_trends=trends(summary(6.0), summary(4.0)))
        for heading in ("# repro observability report", "## Experiments",
                        "## Run ledger", "## Bench trends",
                        "## Metrics snapshots"):
            assert heading in report
        assert "PASS" in report
        assert "2026-08-06T00:00:00Z" in report
        assert "| local.paper-figs.wall_s | 4 | 3.92–4.08 |" in report

    def test_failing_checks_listed(self):
        report = build_report(
            experiments={"fig3": experiment_json(passed=False)},
            metrics={}, ledger=[], bench_trends={})
        assert "FAIL" in report
        assert "Failing checks:" in report
        assert "latency ratio in range" in report


class TestBaseline:
    def test_write_baseline_round_trips(self, tmp_path, capsys):
        write_results(tmp_path, [experiment_json()])
        write_bench(tmp_path, wall_s=5.0)
        target = tmp_path / "baseline.json"
        assert main(["--results", str(tmp_path / "results"),
                     "--bench", str(tmp_path),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--write-baseline", str(target)]) == EXIT_OK
        capsys.readouterr()
        baseline = json.loads(target.read_text())
        assert baseline["schema"] == 2
        assert baseline["experiments"]["fig3"]["passed"] is True
        assert baseline["bench"]["local.paper-figs.wall_s"] \
            == {"median": 5.0, "q1": 4.9, "q3": 5.1}
        # host_* is recorded in BENCH_*.json but never gated
        assert "local.paper-figs.host_wall_s" not in baseline["bench"]

    def test_baseline_gate_exits_nonzero_on_bench_regression(
            self, tmp_path, capsys):
        """Acceptance: a 30 % slowdown with tight quartiles => exit 1."""
        results = write_results(tmp_path, [experiment_json()])
        write_bench(tmp_path, wall_s=5.0)
        target = tmp_path / "baseline.json"
        common = ["--results", str(results), "--bench", str(tmp_path),
                  "--ledger", str(tmp_path / "none.jsonl")]
        assert main(common + ["--write-baseline", str(target)]) == EXIT_OK
        # clean comparison first
        assert main(common + ["--baseline", str(target),
                              "--out", str(tmp_path / "r.md")]) == EXIT_OK
        # inject: wall seconds 30 % slower, default 10 % threshold
        write_bench(tmp_path, wall_s=6.5)
        code = main(common + ["--baseline", str(target),
                              "--out", str(tmp_path / "r.md")])
        capsys.readouterr()
        assert code == EXIT_FAILED_CHECKS
        assert "REGRESSION: bench local.paper-figs.wall_s: median 5 -> 6.5" \
            in (tmp_path / "r.md").read_text()

    def test_median_shift_inside_the_spread_passes(self):
        # +15 % on the median, past the threshold, but the current q1
        # is not above the baseline q3: the runs overlap.
        baseline = baseline_of(**{"local.paper-figs.wall_s":
                                  summary(5.0, 0.1)})
        now = {"median": 5.75, "q1": 5.5, "q3": 6.0}
        assert now["q1"] <= baseline["bench"]["local.paper-figs.wall_s"][
            "q3"]
        assert find_regressions({}, trends(now), baseline,
                                threshold_pct=10.0) == []

    def test_single_sample_reduces_to_the_median_test(self):
        one = {"median": 5.0, "q1": 5.0, "q3": 5.0, "n": 1}
        baseline = baseline_of(**{"local.paper-figs.wall_s": one})
        slower = {"median": 5.6, "q1": 5.6, "q3": 5.6, "n": 1}
        assert len(find_regressions({}, trends(slower), baseline,
                                    threshold_pct=10.0)) == 1
        assert find_regressions({}, trends(slower), baseline,
                                threshold_pct=15.0) == []

    def test_host_metrics_are_never_gated(self):
        baseline = baseline_of(**{"local.paper-figs.host_wall_s":
                                  summary(5.0),
                                  "local.paper-figs.host_speed":
                                  summary(0.7)})
        got = {"local.paper-figs.host_wall_s": [summary(50.0)],
               "local.paper-figs.host_speed": [summary(7.0)]}
        assert find_regressions({}, got, baseline,
                                threshold_pct=10.0) == []

    def test_check_flip_is_a_regression(self, tmp_path, capsys):
        results = write_results(tmp_path, [experiment_json(passed=True)])
        target = tmp_path / "baseline.json"
        common = ["--results", str(results),
                  "--bench", str(tmp_path / "nobench"),
                  "--ledger", str(tmp_path / "none.jsonl")]
        assert main(common + ["--write-baseline", str(target)]) == EXIT_OK
        write_results(tmp_path, [experiment_json(passed=False)])
        code = main(common + ["--baseline", str(target),
                              "--out", str(tmp_path / "r.md")])
        err = capsys.readouterr().err
        assert code == EXIT_FAILED_CHECKS
        assert "regression" in err

    def test_missing_metric_or_experiment_skipped(self):
        baseline = baseline_of(**{"local.paper-figs.wall_s":
                                  summary(5.0)})
        baseline["experiments"] = {"fig9": {"passed": True, "checks": {}}}
        assert find_regressions({}, {}, baseline,
                                threshold_pct=10.0) == []

    def test_within_threshold_is_clean(self):
        baseline = baseline_of(**{"local.paper-figs.wall_s":
                                  summary(5.0)})
        assert find_regressions({}, trends(summary(5.4)), baseline,
                                threshold_pct=10.0) == []

    def test_bad_baseline_is_exit_2(self, tmp_path, capsys):
        common = ["--results", str(tmp_path),
                  "--ledger", str(tmp_path / "none.jsonl"),
                  "--bench", str(tmp_path)]
        assert main(common + ["--baseline",
                              str(tmp_path / "missing.json")]) == 2
        (tmp_path / "bad.json").write_text('{"schema": 99}')
        assert main(common + ["--baseline", str(tmp_path / "bad.json")]) \
            == 2
        (tmp_path / "flat.json").write_text(json.dumps(
            {"schema": 2, "experiments": {},
             "bench": {"local.paper-figs.wall_s": 5.0}}))
        assert main(common + ["--baseline", str(tmp_path / "flat.json")]) \
            == 2
        assert "bench.local.paper-figs.wall_s" in capsys.readouterr().err

    def test_schema_1_baseline_is_rejected_naming_the_schema(
            self, tmp_path, capsys):
        (tmp_path / "old.json").write_text(json.dumps(
            {"schema": 1, "experiments": {},
             "bench": {"local.suite.serial_s": 5.0}}))
        assert main(["--results", str(tmp_path),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--bench", str(tmp_path),
                     "--baseline", str(tmp_path / "old.json")]) == 2
        err = capsys.readouterr().err
        assert "schema 1" in err
        assert "schema 2" in err

    def test_baseline_round_trip_with_build_baseline(self):
        experiments = {"fig3": experiment_json()}
        current = trends(summary(6.0), summary(5.0))
        baseline = build_baseline(experiments, current)
        assert baseline["bench"]["local.paper-figs.wall_s"]["median"] \
            == 5.0
        assert find_regressions(experiments, current, baseline,
                                threshold_pct=10.0) == []


class TestHtml:
    def test_tables_bullets_code_and_escaping(self):
        markdown = ("# Title\n\n| a | b |\n|---|---|\n| 1 | `x<y` |\n\n"
                    "- REGRESSION: bench x: 1 -> 2\n\nplain text\n")
        out = markdown_to_html(markdown)
        assert "<h1>Title</h1>" in out
        assert "<th>a</th>" in out
        assert "<td>1</td>" in out
        assert "<code>x&lt;y</code>" in out
        assert "<li>REGRESSION: bench x: 1 -&gt; 2</li>" in out
        assert "<p>plain text</p>" in out
        assert out.startswith("<!DOCTYPE html>")

    def test_html_is_deterministic(self):
        markdown = "# T\n\n| a |\n|---|\n| 1 |\n"
        assert markdown_to_html(markdown) == markdown_to_html(markdown)


class TestCliArgs:
    def test_bad_flags_are_exit_2(self, tmp_path, capsys):
        assert main(["--results", str(tmp_path), "--threshold", "-1",
                     "--ledger", str(tmp_path / "n.jsonl")]) == 2
        assert main(["--results", str(tmp_path), "--last", "0",
                     "--ledger", str(tmp_path / "n.jsonl")]) == 2
        capsys.readouterr()

    def test_corrupt_bench_file_is_exit_2_naming_it(self, tmp_path, capsys):
        """A corrupt history must not turn the gate into a silent pass."""
        (tmp_path / "BENCH_local.json").write_text("{nope")
        baseline = tmp_path / "baseline.json"
        baseline.write_text(json.dumps(baseline_of(
            **{"local.paper-figs.wall_s": summary(5.0)})))
        assert main(["--results", str(tmp_path / "nope"),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--bench", str(tmp_path), "--baseline",
                     str(baseline)]) == 2
        captured = capsys.readouterr()
        assert "BENCH_local.json" in captured.err
        assert "not readable JSON" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("summary_value", [
        {"median": 5.0, "q1": 4.9},                  # a quartile missing
        {"median": "5", "q1": 4.9, "q3": 5.1},       # not a number
        5.0,                                         # not an object
    ], ids=["missing-quartile", "string-median", "not-an-object"])
    def test_malformed_summary_is_exit_2_not_a_traceback(
            self, tmp_path, capsys, summary_value):
        history = [bench_entry(wall_s=5.0), bench_entry(wall_s=5.0)]
        history[1]["workloads"]["paper-figs"]["wall_s"] = summary_value
        write_bench(tmp_path, history=history)
        assert main(["--results", str(tmp_path / "nope"),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--bench", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "BENCH_local.json" in err
        assert "history[1].workloads.paper-figs.wall_s needs numeric" in err

    def test_empty_inputs_still_render(self, tmp_path, capsys):
        assert main(["--results", str(tmp_path / "nope"),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--bench", str(tmp_path / "nobench")]) == EXIT_OK
        out = capsys.readouterr().out
        assert "No saved experiment JSON found." in out
        assert "No ledger records found." in out
        assert "No BENCH_*.json files found." in out
