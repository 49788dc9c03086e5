"""The consolidated CLI exit-code contract, pinned across both CLIs.

Bad arguments exit 2 (``EXIT_BAD_ARGS``); runs that complete but fail
their shape checks exit 1 (``EXIT_FAILED_CHECKS``); clean runs exit 0.
Every error path goes through :meth:`repro.obs.RunLog.error`, so stderr
always carries a machine-parseable ``<tool> error error msg=...`` line.
"""

import pytest

from repro.analysis.compare import ShapeCheck
from repro.experiments.registry import (
    REGISTRY,
    Experiment,
    ExperimentResult,
)
from repro.obs import RunLog


def failing_experiment(eid="fake-fail"):
    def runner(fast):
        return ExperimentResult(
            experiment_id=eid, title="always fails", rendered="x",
            checks=[ShapeCheck("never true", False, "0")])

    return Experiment(eid, "always fails", "test", runner)


def last_error_line(err):
    lines = [line for line in err.splitlines()
             if " error error " in line]
    assert lines, f"no RunLog error line in stderr: {err!r}"
    return RunLog.parse_line(lines[-1])


class TestExperimentsCli:
    def test_unknown_id_is_exit_2(self, capsys):
        from repro.experiments.runner import main

        assert main(["no-such-figure"]) == 2
        tool, level, event, fields = last_error_line(
            capsys.readouterr().err)
        assert tool == "repro-experiments"
        assert "no-such-figure" in fields["msg"]
        assert "available" in fields

    def test_bad_jobs_is_exit_2(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--jobs", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("timeout", ["nan", "inf"])
    def test_bad_unit_timeout_is_exit_2_naming_the_flag(self, timeout,
                                                        capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--unit-timeout", timeout]) == 2
        _, _, _, fields = last_error_line(capsys.readouterr().err)
        assert "--unit-timeout" in fields["msg"]

    def test_bad_faults_spec_is_exit_2(self, capsys):
        from repro.experiments.runner import main

        assert main(["degraded-cxl", "--faults", "nonsense=spec=bad"]) \
            == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec,named", [
        ("stall=0.05,stall-ns=nan", "stall_ns must be finite"),
        ("crc=0.01,crc=0.02", "repeated key 'crc'"),
    ])
    def test_invalid_fault_plan_is_exit_2(self, spec, named, capsys):
        from repro.experiments.runner import main

        assert main(["cluster-pooling", "--faults", spec]) == 2
        _, _, _, fields = last_error_line(capsys.readouterr().err)
        assert named in fields["msg"]

    def test_fault_refusing_experiment_is_exit_2(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--faults", "crc=0.01"]) == 2
        assert "do not accept a fault plan" \
            in capsys.readouterr().err

    def test_failing_checks_are_exit_1(self, monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setitem(REGISTRY, "fake-fail", failing_experiment())
        assert main(["fake-fail", "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "failing shape checks" in captured.out
        tool, level, event, fields = last_error_line(captured.err)
        assert tool == "repro-experiments"

    def test_clean_run_is_exit_0(self, capsys):
        from repro.experiments.runner import main

        assert main(["table1", "--no-cache"]) == 0
        assert " error " not in capsys.readouterr().err


class TestMemoCli:
    def test_unknown_scheme_is_exit_2(self, capsys):
        from repro.memo.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["latency", "--scheme", "HBM"])
        assert excinfo.value.code == 2
        tool, level, event, fields = last_error_line(
            capsys.readouterr().err)
        assert tool == "memo"
        assert "HBM" in fields["msg"]

    def test_clean_run_is_exit_0(self, capsys):
        from repro.memo.cli import main

        assert main(["latency"]) == 0
        capsys.readouterr()
