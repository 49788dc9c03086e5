"""bench_to_json: perfbench's results.json -> a BENCH_<label>.json history."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_to_json", REPO_ROOT / "benchmarks" / "bench_to_json.py")
bench_to_json = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_to_json)

append_history = bench_to_json.append_history
BadInput = bench_to_json.BadInput


def summary(median, spread=0.02, n=5):
    return {"median": median, "q1": median * (1 - spread),
            "q3": median * (1 + spread), "n": n}


def results_json(wall_s=1.0, *, failed=0, smoke=False):
    """A results.json shaped like perfbench/run.py writes it."""
    metrics = {"wall_s": summary(wall_s), "setup_s": summary(0.28),
               "peak_rss_mb": summary(48.9, 0.001),
               "host_wall_s": summary(wall_s * 1.3),
               "host_setup_s": summary(0.4), "host_speed": summary(0.75)}
    metrics["wall_s"]["p90"] = wall_s * 1.1      # dropped by the converter
    workload = {"attempted": 10, "failed": failed,
                "fail_ratio": failed / 10, "layers": {}, "problems": [],
                "metrics": metrics}
    return {"host": {"python": "3.11.7", "machine": "x86_64", "cpus": 2,
                     "cgroup_cpus": None, "host_cpus": 2},
            "seed": 7, "smoke": smoke,
            "workloads": {"paper-figs": workload,
                          "suite-jobs": copy.deepcopy(workload)}}


def write_results(tmp_path, data, name="results.json"):
    path = tmp_path / name
    path.write_text(data if isinstance(data, str) else json.dumps(data))
    return path


def entry(wall_s):
    return bench_to_json.make_entry(results_json(wall_s), "local")


def walls(payload):
    return [item["workloads"]["paper-figs"]["wall_s"]["median"]
            for item in payload["history"]]


class TestAppendHistory:
    def test_fresh_file_starts_history(self, tmp_path):
        out = append_history(tmp_path / "BENCH_x.json", entry(5.0),
                             limit=20)
        assert out["label"] == "local"
        assert walls(out) == [5.0]

    def test_history_file_gains_entry_newest_last(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(
            {"label": "local", "history": [entry(1.0), entry(2.0)]}))
        assert walls(append_history(path, entry(3.0), limit=20)) \
            == [1.0, 2.0, 3.0]

    def test_limit_keeps_newest(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(
            {"label": "local",
             "history": [entry(float(n)) for n in range(5)]}))
        assert walls(append_history(path, entry(99.0), limit=3)) \
            == [3.0, 4.0, 99.0]

    def test_unreadable_file_is_bad_input(self, tmp_path):
        path = tmp_path / "BENCH_x.json"
        path.write_text("{broken json")
        with pytest.raises(BadInput, match="not JSON"):
            append_history(path, entry(1.0), limit=20)

    def test_non_history_file_is_bad_input(self, tmp_path):
        # A single entry at top level is not a history: refuse it
        # rather than drop what it holds.
        path = tmp_path / "BENCH_x.json"
        path.write_text(json.dumps(entry(7.0)))
        with pytest.raises(BadInput, match="'history'"):
            append_history(path, entry(8.0), limit=20)


class TestEntry:
    def test_copies_host_seed_and_quartiles(self):
        made = entry(2.0)
        assert made["label"] == "local"
        assert made["host"]["cpus"] == 2
        assert made["seed"] == 7
        assert sorted(made["workloads"]) == ["paper-figs", "suite-jobs"]
        metrics = made["workloads"]["paper-figs"]
        assert sorted(metrics) == ["host_setup_s", "host_speed",
                                   "host_wall_s", "peak_rss_mb",
                                   "setup_s", "wall_s"]
        assert metrics["wall_s"] == summary(2.0)     # no p90


class TestCli:
    def test_append_flag_builds_real_history(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        for wall in (1.0, 2.0, 3.0):
            source = write_results(tmp_path, results_json(wall))
            assert bench_to_json.main(
                ["--results", str(source), "--label", "t", "--out",
                 str(out), "--append", "--history-limit", "2"]) == 0
        capsys.readouterr()
        data = json.loads(out.read_text())
        assert data["label"] == "t"
        assert walls(data) == [2.0, 3.0]
        assert {item["label"] for item in data["history"]} == {"t"}

    def test_without_append_overwrites(self, tmp_path, capsys):
        out = tmp_path / "BENCH_t.json"
        for wall in (1.0, 2.0):
            source = write_results(tmp_path, results_json(wall))
            assert bench_to_json.main(["--results", str(source), "--label",
                                       "t", "--out", str(out)]) == 0
        capsys.readouterr()
        assert walls(json.loads(out.read_text())) == [2.0]

    def test_bad_history_limit_is_exit_2(self, tmp_path, capsys):
        source = write_results(tmp_path, results_json())
        assert bench_to_json.main(
            ["--results", str(source), "--label", "t",
             "--history-limit", "0"]) == 2
        assert "history-limit" in capsys.readouterr().err

    def test_smoke_result_is_exit_2(self, tmp_path, capsys):
        source = write_results(tmp_path, results_json(smoke=True))
        out = tmp_path / "BENCH_t.json"
        assert bench_to_json.main(["--results", str(source), "--label",
                                   "t", "--out", str(out)]) == 2
        assert "--smoke" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("path, field", [
        (("workloads",), "'workloads'"),
        (("seed",), "'seed'"),
        (("workloads", "suite-jobs", "metrics"),
         "workloads.suite-jobs.metrics"),
        (("workloads", "paper-figs", "failed"),
         "workloads.paper-figs.failed"),
        (("workloads", "paper-figs", "metrics", "setup_s", "q3"),
         "workloads.paper-figs.metrics.setup_s.q3"),
    ])
    def test_missing_key_is_exit_2_naming_it(self, tmp_path, capsys,
                                             path, field):
        data = results_json()
        node = data
        for key in path[:-1]:
            node = node[key]
        del node[path[-1]]
        source = write_results(tmp_path, data)
        out = tmp_path / "BENCH_t.json"
        assert bench_to_json.main(["--results", str(source), "--label",
                                   "t", "--out", str(out)]) == 2
        assert field in capsys.readouterr().err
        assert not out.exists()

    def test_bad_json_is_exit_2(self, tmp_path, capsys):
        source = write_results(tmp_path, "{not json")
        assert bench_to_json.main(["--results", str(source),
                                   "--label", "t"]) == 2
        assert "not JSON" in capsys.readouterr().err

    def test_missing_file_is_exit_2(self, tmp_path, capsys):
        assert bench_to_json.main(
            ["--results", str(tmp_path / "nope.json"), "--label", "t"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_failed_workload_is_exit_1_and_writes_nothing(self, tmp_path,
                                                          capsys):
        data = results_json()
        data["workloads"]["suite-jobs"]["failed"] = 1
        source = write_results(tmp_path, data)
        out = tmp_path / "BENCH_t.json"
        out.write_text(json.dumps({"label": "t",
                                   "history": [entry(1.0)]}))
        before = out.read_bytes()
        assert bench_to_json.main(["--results", str(source), "--label",
                                   "t", "--out", str(out),
                                   "--append"]) == 1
        assert "suite-jobs" in capsys.readouterr().err
        assert out.read_bytes() == before
