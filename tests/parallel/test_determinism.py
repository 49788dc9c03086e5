"""Parallel and cached runs are indistinguishable from serial ones."""

import json

import pytest

from repro import build_system, combined_testbed
from repro.apps.dsb import DsbRunner
from repro.apps.kvstore import RedisYcsbStudy
from repro.apps.kvstore.ycsb_runner import p99_series
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.experiments import REGISTRY, get
from repro.experiments.registry import ExperimentResult
from repro.experiments.runner import main
from repro.parallel import ParallelRunner, ResultCache, result_key
from repro.parallel.sweeps import run_kv_p99_point, run_sim_point
from repro.workloads import WORKLOADS

THREADS = [1, 2, 4]
LINES = 200


def sweep_on_pool(sim_class, threads, lines, **init_kwargs):
    """A thread sweep whose points run as run_sim_point units on a
    two-worker pool."""
    specs = [(sim_class, init_kwargs,
              {"threads": count, "lines_per_thread": lines})
             for count in threads]
    return dict(zip(threads, ParallelRunner(2).map(run_sim_point, specs)))


class TestSweepDeterminism:
    def test_read_sweep_parallel_equals_serial(self):
        serial = CxlEndToEndSim().sweep(THREADS, lines_per_thread=LINES)
        parallel = sweep_on_pool(CxlEndToEndSim, THREADS, LINES)
        assert parallel == serial        # E2eResult is a frozen dataclass

    def test_write_sweep_parallel_equals_serial(self):
        serial = CxlWriteEndToEndSim().sweep(THREADS,
                                             lines_per_thread=LINES)
        parallel = sweep_on_pool(CxlWriteEndToEndSim, THREADS, LINES)
        assert parallel == serial


class TestCurveSharding:
    """Fig 6/10 p99 points run as separate units — same series either
    way."""

    @pytest.fixture(scope="class")
    def system(self):
        return build_system(combined_testbed())

    def kv_curves_on_pool(self, study, fractions, qps, requests):
        specs = [study.point_spec(WORKLOADS["A"], fraction, point,
                                  requests=requests)
                 for fraction in fractions for point in qps]
        results = ParallelRunner(2).map(run_kv_p99_point, specs)
        return [p99_series(fraction, qps,
                           results[i * len(qps):(i + 1) * len(qps)])
                for i, fraction in enumerate(fractions)]

    def dsb_curves_on_pool(self, combos, qps, requests):
        specs = [runner.point_spec(point, request_type=request_type,
                                   requests=requests)
                 for runner, request_type in combos for point in qps]
        results = ParallelRunner(2).map(run_sim_point, specs)
        return [runner.p99_series(qps,
                                  results[i * len(qps):(i + 1) * len(qps)],
                                  request_type=request_type)
                for i, (runner, request_type) in enumerate(combos)]

    def test_kv_p99_curve_parallel_equals_serial(self, system):
        study = RedisYcsbStudy(system, num_keys=5_000)
        qps = [10_000.0, 30_000.0, 50_000.0]
        serial = study.p99_curve(WORKLOADS["A"], 0.5, qps, requests=400)
        parallel, = self.kv_curves_on_pool(study, [0.5], qps, 400)
        assert parallel == serial        # Series is a dataclass

    def test_dsb_p99_curve_parallel_equals_serial(self, system):
        qps = [200.0, 600.0]
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        serial = runner.p99_curve(qps, requests=300)
        parallel, = self.dsb_curves_on_pool([(runner, None)], qps, 300)
        assert parallel == serial

    def test_kv_p99_curves_flat_shard_equals_serial(self, system):
        # The fig6 grid: every (fraction, qps) pair is its own unit,
        # reassembled fraction-major.
        study = RedisYcsbStudy(system, num_keys=5_000)
        qps = [10_000.0, 30_000.0]
        fractions = [0.0, 0.5, 1.0]
        serial = [study.p99_curve(WORKLOADS["A"], fraction, qps,
                                  requests=400)
                  for fraction in fractions]
        assert self.kv_curves_on_pool(study, fractions, qps, 400) \
            == serial

    def test_dsb_p99_curves_flat_shard_equals_serial(self, system):
        # The fig10 grid: (runner, request-type) combos crossed with
        # QPS points, one unit each.
        from repro.apps.dsb import RequestType

        dram = DsbRunner(system, database_node=system.LOCAL_NODE)
        cxl = DsbRunner(system, database_node=system.cxl_node_id)
        combos = [(runner, request_type)
                  for request_type in (RequestType.COMPOSE_POST, None)
                  for runner in (dram, cxl)]
        qps = [200.0, 600.0]
        serial = [runner.p99_curve(qps, request_type=request_type,
                                   requests=300)
                  for runner, request_type in combos]
        assert self.dsb_curves_on_pool(combos, qps, 300) == serial

    def test_only_des_heavy_experiments_shard_internally(self):
        assert REGISTRY["fig6"].points
        assert REGISTRY["fig10"].points
        assert not REGISTRY["fig3"].points
        assert not REGISTRY["table1"].points


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestRunnerCliDeterminism:
    IDS = ["fig3", "fig5"]

    def _save_run(self, tmp_path, name, extra):
        out = tmp_path / name
        assert main([*self.IDS, "--save", str(out), *extra]) == 0
        return {path.name: path.read_bytes()
                for path in sorted(out.iterdir())}

    def test_jobs_save_matches_serial_save(self, isolated_cache, capsys):
        serial = self._save_run(isolated_cache, "serial", ["--no-cache"])
        parallel = self._save_run(isolated_cache, "parallel",
                                  ["--no-cache", "--jobs", "2"])
        assert parallel == serial
        capsys.readouterr()

    def test_cached_rerun_matches_first_run(self, isolated_cache,
                                            capsys):
        first = self._save_run(isolated_cache, "first", [])
        out1 = capsys.readouterr().out
        cached = self._save_run(isolated_cache, "second", [])
        out2 = capsys.readouterr().out
        assert cached == first
        assert out2 == out1


class TestCacheHitExactness:
    def test_cache_hit_returns_exact_object(self, tmp_path):
        result = get("fig3").run(fast=True)
        cache = ResultCache(tmp_path)
        key = result_key("fig3", {"fast": True})
        cache.put(key, result.payload())

        restored = ExperimentResult.from_payload(cache.get(key))
        assert restored.experiment_id == result.experiment_id
        assert restored.title == result.title
        assert restored.rendered == result.rendered
        assert restored.checks == result.checks
        assert restored.series == result.series
        assert restored.render() == result.render()
        assert json.dumps(restored.to_dict(), sort_keys=True) \
            == json.dumps(result.to_dict(), sort_keys=True)

    def test_payload_roundtrip_without_disk(self):
        result = get("table1").run(fast=True)
        clone = ExperimentResult.from_payload(
            json.loads(json.dumps(result.payload())))
        assert clone.render() == result.render()
        assert clone.passed == result.passed
