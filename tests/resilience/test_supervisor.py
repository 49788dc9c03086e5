"""SupervisedRunner: timeouts, retries, crash classification, drain."""

import multiprocessing
import os
import time
from pathlib import Path

import pytest

from repro.parallel import ParallelRunner
from repro.parallel.sweeps import KILL_ENV, _apply_test_faults
from repro.resilience import (
    FAILURE_KINDS,
    SupervisedRunner,
    SupervisionPolicy,
    UnitFailure,
)
from repro.resilience.supervisor import ResilienceError


def _square(n):
    return n * n


def _boom(n):
    raise ValueError(f"unit {n} boom")


def _boom_on_one(n):
    if n == 1:
        raise ValueError("unit 1 boom")
    return n * 10


def _die_silently(n):
    os._exit(99)


def _hang(n):
    time.sleep(60)
    return n


def _pid_or_hang(name):
    if name == "hang":
        time.sleep(60)
    return os.getpid()


def _faulted_pid(name):
    _apply_test_faults(name)
    return os.getpid()


def _flaky_marker(marker):
    """Crash on the first call, succeed once the marker file exists."""
    path = Path(marker)
    if not path.exists():
        path.write_text("attempted\n")
        raise ValueError("first attempt")
    return "recovered"


class TestPolicy:
    def test_defaults_are_inert(self):
        policy = SupervisionPolicy()
        assert policy.timeout_s is None
        assert policy.retries == 0
        assert not policy.fail_fast

    def test_validation(self):
        with pytest.raises(ResilienceError):
            SupervisionPolicy(timeout_s=0)
        with pytest.raises(ResilienceError):
            SupervisionPolicy(timeout_s=-1.5)
        with pytest.raises(ResilienceError):
            SupervisionPolicy(retries=-1)
        with pytest.raises(ResilienceError):
            SupervisionPolicy(jitter=1.5)
        with pytest.raises(ResilienceError):
            SupervisionPolicy(backoff_base_s=-0.1)

    def test_backoff_is_deterministic(self):
        policy = SupervisionPolicy(retries=3, seed=7)
        assert policy.backoff_s(2, 1) == policy.backoff_s(2, 1)
        assert SupervisionPolicy(retries=3, seed=7).backoff_s(2, 1) \
            == policy.backoff_s(2, 1)

    def test_backoff_varies_by_unit_and_attempt(self):
        policy = SupervisionPolicy(retries=3)
        delays = {policy.backoff_s(index, attempt)
                  for index in range(4) for attempt in (1, 2)}
        assert len(delays) == 8

    def test_backoff_within_jitter_bounds_and_capped(self):
        policy = SupervisionPolicy(retries=8, backoff_base_s=0.05,
                                   backoff_cap_s=0.4, jitter=0.25)
        for attempt in range(1, 9):
            base = min(0.05 * 2 ** (attempt - 1), 0.4)
            delay = policy.backoff_s(0, attempt)
            assert base * 0.75 <= delay <= base * 1.25

    def test_backoff_attempt_must_be_positive(self):
        with pytest.raises(ResilienceError):
            SupervisionPolicy().backoff_s(0, 0)


class TestUnitFailure:
    def test_kind_must_be_known(self):
        with pytest.raises(ResilienceError):
            UnitFailure(index=0, unit="x", kind="melted", attempts=1)

    def test_str_carries_unit_kind_attempts_and_detail(self):
        failure = UnitFailure(index=0, unit="fig3", kind="killed",
                              attempts=2, message="worker died",
                              exit_code=137)
        text = str(failure)
        assert "fig3" in text and "killed" in text
        assert "2 attempt(s)" in text
        assert "exit 137" in text and "worker died" in text

    def test_to_dict_round_trips_fields(self):
        failure = UnitFailure(index=3, unit="fig5", kind="timeout",
                              attempts=1, message="exceeded 2s")
        data = failure.to_dict()
        assert data["unit"] == "fig5"
        assert data["kind"] == "timeout"
        assert data["exit_code"] is None

    def test_all_kinds_constructible(self):
        for kind in FAILURE_KINDS:
            UnitFailure(index=0, unit="x", kind=kind, attempts=1)


class TestInline:
    """jobs=1 with no timeout: the exact serial code path, wrapped."""

    def test_success_in_order(self):
        outcomes = SupervisedRunner(1).map(_square, [3, 1, 2])
        assert [o.value for o in outcomes] == [9, 1, 4]
        assert all(o.ok and o.attempts == 1 for o in outcomes)

    def test_exception_becomes_failure_not_raise(self):
        outcomes = SupervisedRunner(1).map(_boom_on_one, [0, 1, 2])
        assert outcomes[0].value == 0 and outcomes[2].value == 20
        assert not outcomes[1].ok
        assert outcomes[1].failure.kind == "exception"
        assert "unit 1 boom" in outcomes[1].failure.message

    def test_retries_recover_flaky_unit(self):
        calls = []

        def flaky(n):
            calls.append(n)
            if len(calls) == 1:
                raise ValueError("first attempt")
            return n

        policy = SupervisionPolicy(retries=2, backoff_base_s=0.001)
        outcomes = SupervisedRunner(1, policy=policy).map(flaky, [7])
        assert outcomes[0].ok and outcomes[0].value == 7
        assert outcomes[0].attempts == 2 and outcomes[0].retried == 1

    def test_retries_exhausted_reports_total_attempts(self):
        policy = SupervisionPolicy(retries=2, backoff_base_s=0.001)
        outcomes = SupervisedRunner(1, policy=policy).map(_boom, [4])
        assert outcomes[0].failure.attempts == 3

    def test_fail_fast_cancels_remainder(self):
        policy = SupervisionPolicy(fail_fast=True)
        outcomes = SupervisedRunner(1, policy=policy).map(
            _boom_on_one, [0, 1, 2, 3])
        assert outcomes[0].ok
        assert outcomes[1].failure.kind == "exception"
        assert [o.failure.kind for o in outcomes[2:]] \
            == ["cancelled", "cancelled"]

    def test_drain_marks_unstarted_units_interrupted(self):
        runner = SupervisedRunner(1)
        seen = []

        def fn(n):
            seen.append(n)
            if n == 0:
                runner.request_drain()
            return n

        outcomes = runner.map(fn, [0, 1, 2])
        assert seen == [0]
        assert outcomes[0].ok
        assert [o.failure.kind for o in outcomes[1:]] \
            == ["interrupted", "interrupted"]
        assert runner.drained

    def test_on_result_fires_per_success(self):
        landed = []
        runner = SupervisedRunner(
            1, on_result=lambda i, v: landed.append((i, v)))
        runner.map(_boom_on_one, [0, 1, 2])
        assert landed == [(0, 0), (2, 20)]

    def test_names_label_failures(self):
        outcomes = SupervisedRunner(1, names=["alpha"]).map(_boom, [1])
        assert outcomes[0].failure.unit == "alpha"

    def test_empty_input(self):
        assert SupervisedRunner(4).map(_square, []) == []

    def test_jobs_validation(self):
        with pytest.raises(ResilienceError):
            SupervisedRunner(0)


class TestSubprocess:
    """jobs>1 (or any timeout): process-per-unit supervision."""

    def test_parallel_matches_serial(self):
        serial = SupervisedRunner(1).map(_square, list(range(8)))
        parallel = SupervisedRunner(3).map(_square, list(range(8)))
        assert [o.value for o in parallel] == [o.value for o in serial]

    def test_exception_classified(self):
        outcomes = SupervisedRunner(2).map(_boom_on_one, [0, 1, 2])
        assert outcomes[0].value == 0 and outcomes[2].value == 20
        assert outcomes[1].failure.kind == "exception"
        assert "ValueError" in outcomes[1].failure.message

    def test_silent_death_classified_as_killed(self):
        outcomes = SupervisedRunner(2).map(_die_silently, [0])
        failure = outcomes[0].failure
        assert failure.kind == "killed"
        assert failure.exit_code == 99

    def test_hang_killed_at_timeout(self):
        policy = SupervisionPolicy(timeout_s=0.5)
        start = time.monotonic()
        outcomes = SupervisedRunner(1, policy=policy).map(_hang, [0])
        assert time.monotonic() - start < 10
        assert outcomes[0].failure.kind == "timeout"
        assert "0.5" in outcomes[0].failure.message

    def test_timeout_forces_subprocess_mode_even_serial(self):
        # jobs=1 with a timeout cannot run inline (nothing could kill
        # the unit), so values must still come back correct.
        policy = SupervisionPolicy(timeout_s=30)
        outcomes = SupervisedRunner(1, policy=policy).map(
            _square, [2, 3])
        assert [o.value for o in outcomes] == [4, 9]

    def test_retry_recovers_flaky_worker(self, tmp_path):
        policy = SupervisionPolicy(retries=1, backoff_base_s=0.001)
        outcomes = SupervisedRunner(2, policy=policy).map(
            _flaky_marker, [str(tmp_path / "marker")])
        assert outcomes[0].ok and outcomes[0].value == "recovered"
        assert outcomes[0].retried == 1

    def test_fail_fast_cancels_pending(self):
        policy = SupervisionPolicy(timeout_s=30, fail_fast=True)
        outcomes = SupervisedRunner(1, policy=policy).map(
            _boom_on_one, [1, 0, 2])
        assert outcomes[0].failure.kind == "exception"
        assert {o.failure.kind for o in outcomes[1:]} == {"cancelled"}

    def test_drain_terminates_hung_worker(self):
        runner = SupervisedRunner(
            1, policy=SupervisionPolicy(timeout_s=30))

        def progress(event, index, total, **kwargs):
            if event == "started":
                runner.request_drain()

        runner.progress = progress
        start = time.monotonic()
        outcomes = runner.map(_hang, [0, 1])
        assert time.monotonic() - start < 10
        assert {o.failure.kind for o in outcomes} == {"interrupted"}

    def test_progress_events_stream(self):
        events = []

        def progress(event, index, total, **kwargs):
            events.append((event, index))

        policy = SupervisionPolicy(timeout_s=30)
        SupervisedRunner(1, policy=policy,
                         progress=progress).map(_square, [5])
        assert ("started", 0) in events
        assert ("finished", 0) in events

    def test_on_result_fires_as_units_land(self):
        landed = []
        SupervisedRunner(
            2, on_result=lambda i, v: landed.append((i, v))).map(
            _square, [2, 3])
        assert sorted(landed) == [(0, 4), (1, 9)]


class TestPersistentWorkers:
    """Workers outlive units; a killed worker is replaced on demand."""

    def test_hung_worker_killed_while_sibling_finishes(self, starts):
        policy = SupervisionPolicy(timeout_s=1.0)
        outcomes = SupervisedRunner(2, policy=policy).map(
            _pid_or_hang, ["hang", "a", "b", "c"])
        assert [o.index for o in outcomes] == [0, 1, 2, 3]
        assert outcomes[0].failure.kind == "timeout"
        assert all(o.ok for o in outcomes[1:])
        # One long-lived sibling served every other unit.
        assert len({o.value for o in outcomes[1:]}) == 1
        assert len(starts) == 2
        assert multiprocessing.active_children() == []

    def test_timed_out_worker_replaced_for_next_units(self, starts):
        policy = SupervisionPolicy(timeout_s=0.5)
        outcomes = SupervisedRunner(1, policy=policy).map(
            _pid_or_hang, ["hang", "a", "b"])
        assert [o.failure.kind for o in outcomes[:1]] == ["timeout"]
        assert outcomes[1].value == outcomes[2].value
        assert len(starts) == 2

    def test_killed_worker_replaced_for_next_unit(self, starts,
                                                  monkeypatch):
        monkeypatch.setenv(KILL_ENV, "victim")
        policy = SupervisionPolicy(timeout_s=30)
        outcomes = SupervisedRunner(1, policy=policy).map(
            _faulted_pid, ["victim", "a", "b"])
        assert outcomes[0].failure.kind == "killed"
        assert outcomes[0].failure.exit_code == 137
        assert outcomes[1].ok and outcomes[1].value == outcomes[2].value
        assert outcomes[1].value != os.getpid()
        assert len(starts) == 2

    def test_finished_wall_is_the_units_own_run_time(self):
        walls = {}

        def progress(event, index, total, wall_s=None, **kwargs):
            if event == "finished":
                walls[index] = wall_s

        ParallelRunner(2, progress=progress).map(time.sleep,
                                                 [0.4, 0.4, 0.0])
        assert 0.4 <= walls[0] < 1.0 and 0.4 <= walls[1] < 1.0
        # The third unit queued behind the first two: its wall time
        # excludes that wait.
        assert walls[2] < 0.2
