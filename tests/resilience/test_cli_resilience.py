"""End-to-end: crash-safe sweeps through the real CLIs.

Worker misbehavior is injected through the env-triggered fault hooks
in :mod:`repro.parallel.sweeps` (``REPRO_TEST_UNIT_*``), so these
tests drive the exact production paths: supervised fan-out, per-unit
failure summaries, cache quarantine, checkpoint journaling, and the
SIGINT drain → ``--resume`` round trip.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import repro
from repro.experiments.runner import main as experiments_main
from repro.memo.cli import main as memo_main
from repro.obs import read_ledger
from repro.experiments.runner import run_config
from repro.resilience import suite_hash

SRC_DIR = str(Path(repro.__file__).resolve().parent.parent)


@pytest.fixture
def sandbox(tmp_path, monkeypatch):
    """Isolated cache / ledger / checkpoint roots for one test, and two
    usable CPUs, so ``--jobs 2`` supervises units in worker processes
    on any host (one CPU would run them inline)."""
    monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "2")
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    monkeypatch.setenv("REPRO_LEDGER_PATH",
                       str(tmp_path / "runs.jsonl"))
    monkeypatch.setenv("REPRO_CHECKPOINT_DIR", str(tmp_path / "ckpt"))
    return tmp_path


class TestExperimentsFailures:
    def test_crashing_unit_exits_1_with_summary(self, sandbox,
                                                monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "table1")
        rc = experiments_main(["fig2", "table1", "--jobs", "2",
                               "--no-cache", "--no-progress"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "1 experiment(s) failed to produce a result" in out
        assert "table1: exception" in out
        assert "injected crash" in out
        # The healthy sibling still rendered.
        assert "[PASS]" in out

    def test_sharding_experiment_crash_is_supervised(self, sandbox,
                                                     monkeypatch,
                                                     capsys):
        # degraded-cxl accepts jobs; in a multi-id --jobs suite it is
        # one supervised unit like any other, so the hook fires.
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "degraded-cxl")
        rc = experiments_main(["--no-cache", "--jobs", "2",
                               "degraded-cxl", "fig3", "--no-progress"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "degraded-cxl: exception" in out
        assert "[PASS]" in out

    def test_failed_point_fails_its_experiment(self, sandbox,
                                              monkeypatch, capsys):
        # cluster-degraded runs as one unit per sweep point; the hook
        # crashes every one of them, and the failure is reported once,
        # under the experiment id, while fig3 still lands.
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "cluster-degraded")
        save = sandbox / "save"
        rc = experiments_main(["figC-deg", "fig3", "--jobs", "2",
                               "--no-cache", "--no-progress",
                               "--save", str(save)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "cluster-degraded: exception" in out
        assert "1 experiment(s) failed to produce a result" in out
        failed = json.loads(
            (save / "cluster-degraded.failed.json").read_text())
        assert failed["unit"] == "cluster-degraded"
        assert failed["kind"] == "exception"
        assert not (save / "cluster-degraded.txt").exists()
        assert (save / "fig3.txt").exists()
        (record,) = read_ledger()
        assert list(record["resilience"]["failures"]) \
            == ["cluster-degraded"]

    def test_failure_recorded_in_ledger(self, sandbox, monkeypatch,
                                        capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "table1")
        rc = experiments_main(["table1", "--jobs", "2", "--no-cache",
                               "--no-progress"])
        capsys.readouterr()
        assert rc == 1
        (record,) = read_ledger()
        assert record["exit_code"] == 1
        failure = record["resilience"]["failures"]["table1"]
        assert failure["kind"] == "exception"
        verdict = record["verdicts"]["table1"]
        assert verdict["passed"] is False
        assert verdict["failed"] == "exception"

    def test_os_killed_worker_classified(self, sandbox, monkeypatch,
                                         capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_KILL", "table1")
        rc = experiments_main(["table1", "--jobs", "2", "--no-cache",
                               "--no-progress"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "table1: killed" in out
        assert "exit 137" in out

    def test_hanging_unit_times_out(self, sandbox, monkeypatch,
                                    capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_HANG", "table1:30")
        start = time.monotonic()
        rc = experiments_main(["table1", "--jobs", "2", "--no-cache",
                               "--no-progress", "--unit-timeout", "1"])
        out = capsys.readouterr().out
        assert time.monotonic() - start < 25
        assert rc == 1
        assert "table1: timeout" in out

    def test_retry_recovers_flaky_unit(self, sandbox, monkeypatch,
                                       capsys):
        marker = sandbox / "flaky-marker"
        monkeypatch.setenv("REPRO_TEST_UNIT_FLAKY",
                           f"table1:{marker}")
        rc = experiments_main(["table1", "--jobs", "2", "--no-cache",
                               "--no-progress", "--retries", "2"])
        capsys.readouterr()
        assert rc == 0
        assert marker.exists()
        (record,) = read_ledger()
        assert record["resilience"]["retries"]["table1"] == 1
        assert record["resilience"]["failures"] == {}

    def test_failed_unit_written_to_save_dir(self, sandbox,
                                             monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "table1")
        save = sandbox / "save"
        rc = experiments_main(["fig2", "table1", "--jobs", "2",
                               "--no-cache", "--no-progress",
                               "--save", str(save)])
        capsys.readouterr()
        assert rc == 1
        assert (save / "fig2.txt").exists()
        failed = json.loads((save / "table1.failed.json").read_text())
        assert failed["kind"] == "exception"
        assert not (save / "table1.txt").exists()

    def test_fail_fast_stops_sweep(self, sandbox, monkeypatch,
                                   capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "fig2")
        rc = experiments_main(["fig2", "fig3", "table1", "--jobs", "2",
                               "--no-cache", "--no-progress",
                               "--fail-fast"])
        capsys.readouterr()
        assert rc == 1
        (record,) = read_ledger()
        kinds = {unit: failure["kind"] for unit, failure
                 in record["resilience"]["failures"].items()}
        assert kinds["fig2"] == "exception"
        assert "cancelled" in kinds.values()

    def test_bad_flag_values_exit_2(self, sandbox, capsys):
        assert experiments_main(["table1", "--unit-timeout", "0"]) == 2
        assert experiments_main(["table1", "--retries", "-1"]) == 2
        assert experiments_main(["table1", "--resume",
                                 "--no-checkpoint"]) == 2
        capsys.readouterr()


class TestCacheQuarantineEndToEnd:
    def _corrupt(self, sandbox, mode):
        (entry,) = (sandbox / "cache").glob("*.json")
        if mode == "truncate":
            entry.write_text(entry.read_text()[:25])
        else:                                   # bit-flip the payload
            data = json.loads(entry.read_text())
            data["payload"]["rendered"] = \
                "X" + data["payload"]["rendered"][1:]
            entry.write_text(json.dumps(data))
        return entry.name[:-len(".json")]

    @pytest.mark.parametrize("mode", ["truncate", "bit-flip"])
    def test_corrupt_entry_recomputes_and_quarantines(
            self, sandbox, mode, capsys):
        assert experiments_main(["table1", "--no-progress"]) == 0
        baseline = capsys.readouterr().out
        key = self._corrupt(sandbox, mode)
        assert experiments_main(["table1", "--no-progress"]) == 0
        assert capsys.readouterr().out == baseline
        # Moved aside for post-mortem, not deleted.
        assert (sandbox / "cache" / "quarantine"
                / f"{key}.json").exists()
        records = read_ledger()
        assert records[-1]["resilience"]["quarantined"] == [key]
        # Recompute repopulated the entry: next run is a plain hit.
        assert experiments_main(["table1", "--no-progress"]) == 0
        capsys.readouterr()
        assert read_ledger()[-1]["cache"]["hits"] == ["table1"]

    def test_hang_plus_corrupt_cache_single_run(self, sandbox,
                                                monkeypatch, capsys):
        """The acceptance scenario: one sweep hitting both faults."""
        assert experiments_main(["fig2", "--no-progress"]) == 0
        capsys.readouterr()
        key = self._corrupt(sandbox, "truncate")
        monkeypatch.setenv("REPRO_TEST_UNIT_HANG", "table1:30")
        rc = experiments_main(["fig2", "table1", "--jobs", "2",
                               "--no-progress", "--unit-timeout", "1"])
        out = capsys.readouterr().out
        assert rc == 1
        assert "table1: timeout" in out
        record = read_ledger()[-1]
        assert record["resilience"]["quarantined"] == [key]
        assert record["resilience"]["failures"]["table1"]["kind"] \
            == "timeout"


class TestInterruptResume:
    def _env(self, sandbox, **extra):
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC_DIR + os.pathsep \
            + env.get("PYTHONPATH", "")
        env["REPRO_CACHE_DIR"] = str(sandbox / "cache")
        env["REPRO_LEDGER_PATH"] = str(sandbox / "runs.jsonl")
        env["REPRO_CHECKPOINT_DIR"] = str(sandbox / "ckpt")
        env.update(extra)
        return env

    def test_sigint_drains_and_resume_is_byte_identical(self, sandbox,
                                                        capsys):
        ids = ["fig2", "table1", "fig3"]
        argv = ids + ["--jobs", "2", "--no-cache", "--no-progress"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner"] + argv,
            env=self._env(sandbox,
                          REPRO_TEST_UNIT_HANG="table1:60"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        journal = (sandbox / "ckpt"
                   / f"{suite_hash(ids, run_config(True))}.jsonl")
        deadline = time.monotonic() + 60
        # Wait until both quick units are journaled, then interrupt.
        while time.monotonic() < deadline:
            if journal.exists() \
                    and len(journal.read_text().splitlines()) >= 2:
                break
            time.sleep(0.1)
        else:
            proc.kill()
            pytest.fail("journal never accumulated the quick units")
        proc.send_signal(signal.SIGINT)
        out, err = proc.communicate(timeout=60)
        assert proc.returncode == 130
        assert out == ""                    # nothing on stdout
        assert "--resume" in err            # the printed hint
        assert journal.exists()

        resumed = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner"]
            + argv + ["--resume"],
            env=self._env(sandbox), capture_output=True, text=True,
            timeout=120)
        assert resumed.returncode == 0
        baseline = subprocess.run(
            [sys.executable, "-m", "repro.experiments.runner"] + ids
            + ["--no-cache", "--no-progress"],
            env=self._env(sandbox / "fresh"), capture_output=True,
            text=True, timeout=120)
        assert baseline.returncode == 0
        assert resumed.stdout == baseline.stdout
        # The journal is consumed by the successful resume.
        assert not journal.exists()

    def test_interrupted_ledger_record(self, sandbox):
        ids = ["table1"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.runner"]
            + ids + ["--jobs", "2", "--no-cache", "--no-progress"],
            env=self._env(sandbox, REPRO_TEST_UNIT_HANG="table1:60"),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
        time.sleep(2.0)                     # let the sweep spin up
        proc.send_signal(signal.SIGINT)
        proc.communicate(timeout=60)
        assert proc.returncode == 130
        (record,) = read_ledger(sandbox / "runs.jsonl")
        assert record["exit_code"] == 130
        assert record["resilience"]["interrupted"] is True


class TestMemoSupervision:
    def test_supervised_bw_matches_serial(self, sandbox, capsys):
        assert memo_main(["bw", "--threads", "1", "2",
                          "--no-ledger"]) == 0
        baseline = capsys.readouterr().out
        assert memo_main(["bw", "--threads", "1", "2", "--jobs", "2",
                          "--retries", "1", "--no-ledger"]) == 0
        assert capsys.readouterr().out == baseline

    def test_supervised_random_matches_serial(self, sandbox, capsys):
        args = ["random", "--threads", "1", "--blocks", "1024",
                "4096", "--no-ledger"]
        assert memo_main(args) == 0
        baseline = capsys.readouterr().out
        assert memo_main(args + ["--unit-timeout", "120"]) == 0
        assert capsys.readouterr().out == baseline

    def test_poisoned_units_exit_1_not_traceback(self, sandbox,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", "CXL-ld")
        rc = memo_main(["bw", "--threads", "1",
                        "--unit-timeout", "60"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "memo bw failed" in captured.err
        assert "CXL-ld: exception" in captured.err
        records = read_ledger()
        assert records[-1]["exit_code"] == 1

    def test_retries_recover_flaky_memo_curve(self, sandbox,
                                              monkeypatch, capsys):
        marker = sandbox / "memo-flaky"
        monkeypatch.setenv("REPRO_TEST_UNIT_FLAKY",
                           f"CXL-ld:{marker}")
        # Serial baseline computes inline — no worker, no fault.
        assert memo_main(["bw", "--threads", "1", "2",
                          "--no-ledger"]) == 0
        baseline = capsys.readouterr().out
        assert not marker.exists()
        assert memo_main(["bw", "--threads", "1", "2", "--retries",
                          "2", "--jobs", "2", "--no-ledger"]) == 0
        assert capsys.readouterr().out == baseline

    def test_bad_unit_timeout_exits_2(self, sandbox, capsys):
        with pytest.raises(SystemExit) as excinfo:
            memo_main(["bw", "--unit-timeout", "0"])
        assert excinfo.value.code == 2
        capsys.readouterr()
