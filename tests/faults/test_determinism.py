"""Fault injection is deterministic: serial ≡ parallel, run ≡ re-run.

Mirrors tests/parallel/test_determinism.py, with an active FaultPlan in
every run — the draws are counter-based (docs/FAULTS.md), so running a
faulty sweep's points in other processes must not move a single fault.
"""

import pytest

from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.experiments import get
from repro.experiments.runner import _run_ids, main
from repro.faults import FaultPlan
from repro.parallel import ParallelRunner
from repro.parallel.sweeps import run_sim_point

PLAN = FaultPlan(crc_rate=0.02, poison_rate=0.005, timeout_rate=0.002,
                 stall_rate=0.02, seed=11)
THREADS = [1, 2, 4]
LINES = 200


def sweep_on_pool(sim_class, threads, lines, **init_kwargs):
    """A thread sweep whose points run as run_sim_point units on a
    two-worker pool."""
    specs = [(sim_class, init_kwargs,
              {"threads": count, "lines_per_thread": lines})
             for count in threads]
    return dict(zip(threads, ParallelRunner(2).map(run_sim_point, specs)))


class TestFaultySweepDeterminism:
    def test_read_sweep_parallel_equals_serial(self):
        serial = CxlEndToEndSim(fault_plan=PLAN).sweep(
            THREADS, lines_per_thread=LINES)
        parallel = sweep_on_pool(CxlEndToEndSim, THREADS, LINES,
                                 fault_plan=PLAN)
        assert parallel == serial
        assert any(r.faults_injected > 0 for r in serial.values())

    def test_write_sweep_parallel_equals_serial(self):
        serial = CxlWriteEndToEndSim(fault_plan=PLAN).sweep(
            THREADS, lines_per_thread=LINES)
        parallel = sweep_on_pool(CxlWriteEndToEndSim, THREADS, LINES,
                                 fault_plan=PLAN)
        assert parallel == serial
        assert any(r.faults_injected > 0 for r in serial.values())

    def test_same_seed_same_results_across_fresh_sims(self):
        first = CxlEndToEndSim(fault_plan=PLAN).run(
            threads=4, lines_per_thread=LINES)
        second = CxlEndToEndSim(fault_plan=PLAN).run(
            threads=4, lines_per_thread=LINES)
        assert first == second

    def test_different_seed_different_faults(self):
        reseeded = FaultPlan(**{**PLAN.to_dict(), "seed": 99})
        first = CxlEndToEndSim(fault_plan=PLAN).run(
            threads=4, lines_per_thread=LINES)
        second = CxlEndToEndSim(fault_plan=reseeded).run(
            threads=4, lines_per_thread=LINES)
        assert first != second


class TestDegradedExperimentDeterminism:
    def test_experiment_jobs_equals_serial(self):
        serial = get("degraded-cxl").run(fast=True)
        results, failures, _, _ = _run_ids(
            ["degraded-cxl"], fast=True, jobs=2, use_cache=False,
            checkpoint=False)
        assert failures == {}
        (_, sharded), = results
        assert sharded.render() == serial.render()
        assert sharded.series == serial.series

    def test_alias_resolves(self):
        assert get("figF").experiment_id == "degraded-cxl"

    def test_accepts_faults_flag(self):
        assert get("degraded-cxl").accepts_faults
        assert not get("fig3").accepts_faults

    def test_custom_plan_changes_result(self):
        default = get("degraded-cxl").run(fast=True)
        custom = get("degraded-cxl").run(
            fast=True, fault_plan=FaultPlan(crc_rate=0.05, seed=3))
        assert custom.rendered != default.rendered

    def test_plan_rejected_by_non_fault_experiment(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError):
            get("table1").run(fast=True, fault_plan=PLAN)


@pytest.fixture
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    return tmp_path


class TestFaultyCliDeterminism:
    def _save_run(self, tmp_path, name, extra):
        out = tmp_path / name
        assert main(["degraded-cxl", "--save", str(out), *extra]) == 0
        return {path.name: path.read_bytes()
                for path in sorted(out.iterdir())}

    def test_jobs_save_matches_serial_save(self, isolated_cache, capsys):
        serial = self._save_run(isolated_cache, "serial", ["--no-cache"])
        parallel = self._save_run(isolated_cache, "parallel",
                                  ["--no-cache", "--jobs", "2"])
        assert parallel == serial
        capsys.readouterr()

    def test_faults_flag_jobs_matches_serial(self, isolated_cache,
                                             capsys):
        spec = "crc=0.03,poison=0.004,seed=5"
        serial = self._save_run(isolated_cache, "serial",
                                ["--no-cache", "--faults", spec])
        parallel = self._save_run(
            isolated_cache, "parallel",
            ["--no-cache", "--faults", spec, "--jobs", "2"])
        assert parallel == serial
        capsys.readouterr()
