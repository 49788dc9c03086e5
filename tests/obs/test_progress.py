"""RunHooks, the run recorder: TTY vs log rendering, ledger collection."""

import io

import pytest

from repro.errors import ReproError
from repro.obs import RunHooks, RunLog


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def advance(self, seconds):
        self.now += seconds

    def __call__(self):
        return self.now


def tty_reporter(total, clock=None):
    stream = io.StringIO()
    reporter = RunHooks(total, stream=stream, tty=True,
                        clock=clock or FakeClock())
    return reporter, stream


def log_reporter(total, clock=None):
    stream = io.StringIO()
    runlog = RunLog("progress", level="debug", stream=stream)
    reporter = RunHooks(total, stream=stream, tty=False, runlog=runlog,
                        clock=clock or FakeClock())
    return reporter, stream


class Failure:
    def __init__(self, kind, attempts):
        self.kind, self.attempts = kind, attempts

    def to_dict(self):
        return {"kind": self.kind, "attempts": self.attempts}


class TestTty:
    def test_rewrites_one_line_with_carriage_returns(self):
        reporter, stream = tty_reporter(2)
        reporter.unit_finished("fig3", wall_s=1.2)
        reporter.unit_finished("fig5", wall_s=0.8)
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert "\n" not in text
        assert "[2/2]" in text

    def test_cache_and_eta_fields_rendered(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(4, clock=clock)
        reporter.cache_miss("fig3")
        clock.advance(2.0)
        reporter.unit_finished("fig3", wall_s=2.0)
        text = stream.getvalue()
        assert "cache 0h/1m" in text
        assert "eta 6.0s" in text              # 2s/unit x 3 remaining

    def test_cached_unit_rendered_as_cache(self):
        reporter, stream = tty_reporter(2)
        reporter.cache_hit("fig3")
        assert "fig3 cache" in stream.getvalue()

    def test_close_erases_the_line(self):
        reporter, stream = tty_reporter(1)
        reporter.unit_finished("fig3", wall_s=0.1)
        reporter.close()
        reporter.close()                       # idempotent
        assert stream.getvalue().endswith("\r")

    def test_shorter_line_fully_overwrites_longer(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(2, clock=clock)
        reporter.unit_started("a-very-long-experiment-name")
        start = len(stream.getvalue())
        clock.advance(1.0)                     # clear the repaint throttle
        reporter.unit_finished("x", wall_s=0.0)
        second = stream.getvalue()[start:]
        assert len(second.lstrip("\r")) >= len(
            "a-very-long-experiment-name")


class TestThrottle:
    def test_rapid_repaints_suppressed(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(100, clock=clock)
        for index in range(50):
            reporter.unit_finished(f"unit{index}", wall_s=0.001)
            clock.advance(0.001)               # 1 ms per unit
        # 50 ms of units at a 100 ms floor: only the first repaint lands.
        assert stream.getvalue().count("\r") == 1
        assert reporter.done == 50             # counters stay exact

    def test_repaint_resumes_after_interval(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(10, clock=clock)
        reporter.unit_finished("a", wall_s=0.0)
        clock.advance(0.2)
        reporter.unit_finished("b", wall_s=0.0)
        text = stream.getvalue()
        assert text.count("\r") == 2
        assert "[2/10]" in text

    def test_final_unit_always_renders(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(2, clock=clock)
        reporter.unit_finished("a", wall_s=0.0)
        reporter.unit_finished("b", wall_s=0.0)  # same instant, but last
        assert "[2/2]" in stream.getvalue()

    def test_retry_and_failure_bypass_throttle(self):
        clock = FakeClock()
        reporter, stream = tty_reporter(3, clock=clock)
        reporter.unit_finished("a", wall_s=0.0)
        reporter.unit_retry("b", attempt=1, kind="timeout")
        reporter.unit_failed("b", Failure("timeout", 2))
        text = stream.getvalue()
        assert "retry #1" in text
        assert "FAILED" in text

    def test_log_mode_never_throttled(self):
        clock = FakeClock()
        reporter, stream = log_reporter(10, clock=clock)
        for index in range(5):
            reporter.unit_finished(f"unit{index}", wall_s=0.0)
        assert len(stream.getvalue().splitlines()) == 5


class TestNonTty:
    def test_emits_runlog_events(self):
        reporter, stream = log_reporter(2)
        reporter.unit_started("fig3")
        reporter.unit_finished("fig3", wall_s=1.5)
        lines = stream.getvalue().splitlines()
        assert len(lines) == 2
        tool, level, event, fields = RunLog.parse_line(lines[0])
        assert (level, event) == ("debug", "unit-started")
        tool, level, event, fields = RunLog.parse_line(lines[1])
        assert (level, event) == ("info", "unit-finished")
        assert fields["id"] == "fig3"
        assert fields["done"] == "1" and fields["total"] == "2"

    def test_no_carriage_returns_in_log_mode(self):
        reporter, stream = log_reporter(1)
        reporter.unit_finished("fig3", wall_s=0.1)
        assert "\r" not in stream.getvalue()


class TestReporterBasics:
    def test_negative_total_rejected(self):
        with pytest.raises(ReproError):
            RunHooks(-1)

    def test_eta_none_until_first_finish_and_after_last(self):
        clock = FakeClock()
        reporter, _ = tty_reporter(1, clock=clock)
        assert reporter.eta_s() is None
        clock.advance(1.0)
        reporter.unit_finished("fig3", wall_s=1.0)
        assert reporter.eta_s() is None


class TestRunHooks:
    def test_collects_ledger_inputs(self):
        hooks = RunHooks()
        hooks.cache_hit("fig3")
        hooks.cache_miss("fig5")
        hooks.unit_started("fig5")
        hooks.unit_finished("fig5", wall_s=2.5)
        assert hooks.cache_hits == ["fig3"]
        assert hooks.cache_misses == ["fig5"]
        assert hooks.unit_wall["fig5"] == 2.5
        assert hooks.done == 2

    def test_verdicts_shape(self):
        class Result:
            passed = True

        hooks = RunHooks()
        hooks.cache_hit("fig3")
        hooks.unit_finished("fig5", wall_s=1.23456)
        verdicts = hooks.verdicts([("fig3", Result()),
                                   ("fig5", Result())])
        assert verdicts == {
            "fig3": {"passed": True, "wall_s": None, "cached": True},
            "fig5": {"passed": True, "wall_s": 1.2346, "cached": False},
        }

    def test_displays_each_recorded_event_once(self):
        hooks, stream = log_reporter(3)
        hooks.cache_hit("fig3")
        hooks.unit_started("fig5")
        hooks.unit_retry("fig5", attempt=1, kind="timeout")
        hooks.unit_finished("fig5", wall_s=1.5)
        hooks.unit_failed("fig6", Failure("exception", 1))
        hooks.close()
        events = [RunLog.parse_line(line)[1:]
                  for line in stream.getvalue().splitlines()]
        assert [(level, event) for level, event, _ in events] == [
            ("info", "unit-finished"), ("debug", "unit-started"),
            ("warn", "unit-retry"), ("info", "unit-finished"),
            ("warn", "unit-failed")]
        assert list(events[0][2]) == ["id", "done", "total", "cached",
                                      "resumed", "wall_s", "eta_s"]
        assert events[0][2]["cached"] == "true"
        assert list(events[4][2]) == ["id", "kind", "attempts", "done",
                                      "total"]
        assert [fields["done"] for _, _, fields in events] \
            == ["1", "1", "1", "2", "3"]
        assert hooks.done == 3
        assert hooks.retries == {"fig5": 1}
        assert hooks.failures == {"fig6": {"kind": "exception",
                                           "attempts": 1}}

    def test_display_off_records_without_rendering(self, capsys):
        hooks = RunHooks(runlog=RunLog("progress", level="debug"))
        hooks.cache_hit("fig3")
        hooks.unit_started("fig5")
        hooks.unit_finished("fig5", wall_s=1.5)
        hooks.unit_failed("fig6", Failure("exception", 1))
        hooks.note("note: unseen")
        hooks.close()
        assert capsys.readouterr().err == ""
        assert hooks.unit_wall == {"fig5": 1.5}
        assert list(hooks.failures) == ["fig6"]


class TestSchedulerRecording:
    @pytest.mark.parametrize("crashing", ["table1", "cluster-degraded"])
    def test_crashing_unit_renders_one_failed_line(self, crashing,
                                                   monkeypatch):
        """One poisoned experiment is one event: one FAILED repaint and
        one ledger failure, even when every point of it crashes."""
        from repro.experiments.runner import _run_ids

        monkeypatch.setenv("REPRO_TEST_UNIT_CRASH", crashing)
        hooks, stream = tty_reporter(2)
        results, failures, interrupted, _ = _run_ids(
            [crashing, "fig2"], fast=True, jobs=1, use_cache=False,
            hooks=hooks, checkpoint=False)
        hooks.close()
        assert [eid for eid, _ in results] == ["fig2"]
        assert list(failures) == [crashing] and not interrupted
        assert stream.getvalue().count("FAILED") == 1
        assert f"{crashing} FAILED (exception)" in stream.getvalue()
        assert list(hooks.resilience_record()["failures"]) == [crashing]
        assert hooks.done == 2


class TestStdoutContract:
    def test_progress_never_touches_stdout(self, tmp_path, monkeypatch,
                                           capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_LEDGER_PATH",
                           str(tmp_path / "runs.jsonl"))
        assert main(["table1", "fig3", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert main(["table1", "fig3", "--no-cache", "--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert serial == parallel

    def test_no_progress_flag_silences_unit_events(self, tmp_path,
                                                   monkeypatch, capsys):
        from repro.experiments.runner import main

        monkeypatch.setenv("REPRO_LEDGER_PATH",
                           str(tmp_path / "runs.jsonl"))
        assert main(["table1", "--no-cache", "--no-progress"]) == 0
        assert "unit-finished" not in capsys.readouterr().err
