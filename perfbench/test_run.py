"""Tests of the benchmark itself: statistics, span accounting,
verification, and a ``--smoke`` run end to end.

    python -m pytest perfbench/test_run.py
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import pytest

import child
import layers
import run


# -- statistics --------------------------------------------------------------

def test_median_and_quartiles_match_statistics_module():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 8.0, 7.0, 6.0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert run.summarize(values)["median"] == 4.5
    assert run.quartiles(values) == (q1, q3)
    assert run.quartiles([2.5]) == (2.5, 2.5)


def test_summary_reports_sample_count_and_quartiles():
    summary = run.summarize([3.0, 1.0, 2.0])
    assert summary["n"] == 3
    assert summary["median"] == 2.0
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert not any(key.startswith("p") for key in summary)


@pytest.mark.parametrize("samples, percentile", [
    (9, None), (19, None), (20, 50.0), (99, 50.0), (100, 90.0),
    (999, 90.0), (1000, 99.0), (10_000, 99.9)])
def test_tail_percentile_keeps_ten_samples_beyond_it(samples, percentile):
    assert run.tail_percentile(samples) == percentile
    if percentile is not None:
        assert samples * (1 - percentile / 100) >= 10 - 1e-9


def test_summary_adds_the_tail_percentile_when_samples_allow():
    summary = run.summarize([float(i) for i in range(100)])
    assert summary["p90"] == 90.0


def test_each_stretch_is_rescaled_by_the_speed_seen_during_it():
    record = {"setup": [0.6, 1 / 3], "work": [4.0, 0.5],
              "peak_rss_mb": 50.0}
    metrics = run.end_to_end(record)
    assert metrics["wall_s"] == pytest.approx(2.0)
    assert metrics["setup_s"] == pytest.approx(0.2)
    assert metrics["host_wall_s"] == 4.0
    assert metrics["host_setup_s"] == 0.6
    assert metrics["host_speed"] == 0.5
    assert metrics["peak_rss_mb"] == 50.0


def test_speed_probe_samples_during_work_and_reports_its_own_time():
    with child.SpeedProbe() as probe:
        deadline = time.perf_counter() + 0.2
        while time.perf_counter() < deadline:
            pass
    assert probe.samples >= 5
    assert 0 < probe.spent < 0.2
    assert 0 < probe.speed < 10


def test_speed_probe_samples_once_when_the_stretch_is_too_short():
    with child.SpeedProbe() as probe:
        pass
    assert probe.samples == 1 and probe.speed > 0


def test_speed_probe_discounts_stolen_cpu_ticks(monkeypatch):
    ticks = iter([(100, 1000), (130, 1100)])
    monkeypatch.setattr(child, "cpu_ticks", lambda cpus: next(ticks))
    with child.SpeedProbe() as probe:
        pass
    assert probe.running == pytest.approx(0.7)
    assert probe.speed == pytest.approx(0.7 * probe.rate)


def test_cpu_ticks_reads_the_allowed_cpus():
    stolen, total = child.cpu_ticks(os.sched_getaffinity(0))
    assert 0 <= stolen < total


# -- spans -------------------------------------------------------------------

def test_self_time_subtracts_nested_children():
    spans = [["a", 0.0, 10.0, None],
             ["b", 1.0, 4.0, 0],
             ["c", 2.0, 3.0, 1],
             ["d", 5.0, 9.0, 0]]
    assert layers.self_times(spans) == [3.0, 2.0, 1.0, 4.0]


def test_recorder_nests_spans_and_counts_outermost_time():
    ticks = iter([0.0, 1.0, 2.0, 3.0, 4.0, 10.0])
    recorder = layers.Recorder(clock=lambda: next(ticks))
    outer = recorder.begin("sim.engine")
    inner = recorder.begin("sim.engine")
    middle = recorder.begin("perfmodel")
    recorder.end(middle)
    recorder.end(inner)
    recorder.end(outer)
    assert [span[3] for span in recorder.spans] == [None, 0, 1]
    assert recorder.seconds("sim.engine") == 10.0
    assert recorder.calls("sim.engine") == 1
    assert recorder.seconds("perfmodel") == 1.0
    trace = recorder.trace(origin=0.0)
    assert trace["self_s"] == {"perfmodel": 1.0, "sim.engine": 9.0}


# -- verification ------------------------------------------------------------

def _op(name, digest="d", checks=(True,), seeded=False, error=None):
    return {"name": name, "digest": digest, "checks": list(checks),
            "seeded": seeded, "error": error}


PINNED = {"fig2": {"digest": "d", "checks": [True]},
          "figC": {"digest": "d", "checks": [True]}}


def test_matching_outputs_fail_nothing():
    records = [{"ops": [_op("fig2"), _op("figC", seeded=True)]}] * 2
    assert run.verify(records, PINNED, use_pinned=True) == (8, 0, [])


def test_forced_digest_mismatch_and_check_flip_count_as_failed():
    records = [{"ops": [_op("fig2", digest="x"),
                        _op("figC", checks=[False])]}]
    attempted, failed, problems = run.verify(records, PINNED,
                                             use_pinned=True)
    assert (attempted, failed) == (4, 2)
    assert "digest" in problems[0] and "shape check" in problems[1]


def test_raised_exception_and_unpinned_op_count_as_failed():
    records = [{"ops": [_op("fig2", digest=None, error="Traceback\nBoom"),
                        _op("fig99")]}]
    attempted, failed, problems = run.verify(records, PINNED,
                                             use_pinned=True)
    assert (attempted, failed) == (2, 2)
    assert problems[0].endswith("raised: Boom")


def test_other_seeds_compare_seeded_ops_across_repeats_only():
    first = {"ops": [_op("fig2"), _op("figC", digest="s", seeded=True)]}
    same = {"ops": [_op("fig2"), _op("figC", digest="s", seeded=True)]}
    drifted = {"ops": [_op("fig2"), _op("figC", digest="t", seeded=True)]}
    assert run.verify([first, same], PINNED, use_pinned=False)[1] == 0
    assert run.verify([first, drifted], PINNED, use_pinned=False)[1] == 1
    unseeded_drift = {"ops": [_op("fig2", digest="t")]}
    assert run.verify([unseeded_drift], PINNED, use_pinned=False)[1] == 1


# -- the smoke run -----------------------------------------------------------

def _snapshot(root: Path) -> dict:
    """``git status`` plus every file under results/, ignored ones too."""
    status = None
    if (root / ".git").exists():
        status = subprocess.run(["git", "status", "--porcelain"], cwd=root,
                                capture_output=True, text=True).stdout
    files = {str(path.relative_to(root)): path.stat().st_mtime_ns
             for path in (root / "results").rglob("*") if path.is_file()}
    return {"status": status, "results": files}


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    before = _snapshot(run.ROOT)
    out = tmp_path_factory.mktemp("smoke")
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--smoke", "--out",
         str(out)], cwd=run.ROOT, capture_output=True, text=True,
        timeout=120, env={k: v for k, v in os.environ.items()
                          if not k.startswith("REPRO_")})
    return proc, out, before, _snapshot(run.ROOT)


def test_smoke_run_prints_every_metric_with_its_unit(smoke):
    proc, out, _, _ = smoke
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    bench = run.load_benchmark()
    rows = [line.split() for line in proc.stdout.splitlines()]
    for workload in (w["name"] for w in bench["workloads"]):
        printed = {(row[1], row[2]) for row in rows
                   if len(row) > 2 and row[0] == workload}
        for metric in bench["end_to_end"] + bench["per_layer"]:
            assert (metric["name"], metric["unit"]) in printed, \
                (workload, metric["name"])
        assert (out / f"trace-{workload}.json").is_file()
    report = json.loads((out / "results.json").read_text())
    assert all(entry["failed"] == 0
               for entry in report["workloads"].values())


def test_smoke_run_leaves_the_tree_and_results_unchanged(smoke):
    _, _, before, after = smoke
    assert after == before
