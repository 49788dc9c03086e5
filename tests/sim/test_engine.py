"""The event engine: ordering, cancellation, and run bounds."""

import pytest

from repro.errors import SimulationError
from repro.sim import Engine


class TestScheduling:
    def test_clock_starts_at_zero(self):
        assert Engine().now == 0.0

    def test_events_fire_in_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(30.0, lambda: order.append("c"))
        eng.schedule(10.0, lambda: order.append("a"))
        eng.schedule(20.0, lambda: order.append("b"))
        eng.run()
        assert order == ["a", "b", "c"]

    def test_simultaneous_events_fire_in_schedule_order(self):
        eng = Engine()
        order = []
        for tag in "abcde":
            eng.schedule(5.0, lambda t=tag: order.append(t))
        eng.run()
        assert order == list("abcde")

    def test_clock_advances_to_event_time(self):
        eng = Engine()
        seen = []
        eng.schedule(42.0, lambda: seen.append(eng.now))
        eng.run()
        assert seen == [42.0]
        assert eng.now == 42.0

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Engine().schedule(-1.0, lambda: None)

    def test_none_callback_rejected(self):
        # ``None`` marks a cancelled entry, so it can't be a callback.
        eng = Engine()
        with pytest.raises(SimulationError, match="callback"):
            eng.schedule(1.0, None)
        with pytest.raises(SimulationError, match="callback"):
            eng.schedule_at(1.0, None)
        eng.run()
        assert eng.events_processed == 0

    def test_schedule_at_absolute_time(self):
        eng = Engine()
        eng.schedule(10.0, lambda: eng.schedule_at(25.0, lambda: None))
        eng.run()
        assert eng.now == 25.0

    def test_schedule_at_fires_at_exactly_the_given_time(self):
        # 1024 + ulp(1024) seen from now = ulp(1024) / 2: the delay
        # ``t - now`` and the sum ``now + delay`` both round half to
        # even, landing on 1024.0 instead of ``t``.
        now = 2.0 ** -43
        t = 1024.0 + 2.0 ** -42
        assert now + (t - now) != t
        eng = Engine()
        fired = []
        eng.schedule(now, lambda: eng.schedule_at(
            t, lambda: fired.append(eng.now)))
        eng.run()
        assert fired == [t]

    def test_schedule_at_rejects_the_past(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.run()
        with pytest.raises(SimulationError, match="past"):
            eng.schedule_at(9.5, lambda: None)
        eng.schedule_at(10.0, lambda: None)     # now itself is allowed
        eng.run()
        assert eng.events_processed == 2
        assert eng.now == 10.0

    @pytest.mark.parametrize("method", ["schedule", "schedule_at"])
    def test_nan_time_rejected(self, method):
        """A NaN time compares false both ways, so it would fire first
        and set the clock to NaN."""
        eng = Engine()
        fired = []
        with pytest.raises(SimulationError, match="NaN"):
            getattr(eng, method)(float("nan"), lambda: fired.append(1))
        eng.run()
        assert fired == [] and eng.now == 0.0

    def test_nested_scheduling_from_callback(self):
        eng = Engine()
        order = []

        def first():
            order.append(("first", eng.now))
            eng.schedule(5.0, lambda: order.append(("second", eng.now)))

        eng.schedule(10.0, first)
        eng.run()
        assert order == [("first", 10.0), ("second", 15.0)]


class TestCancellation:
    def test_cancelled_event_does_not_fire(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(10.0, lambda: fired.append(1))
        eng.cancel(handle)
        eng.run()
        assert fired == []

    def test_cancel_is_idempotent(self):
        eng = Engine()
        handle = eng.schedule(10.0, lambda: None)
        eng.cancel(handle)
        eng.cancel(handle)
        eng.run()


class TestRunBounds:
    def test_run_until_stops_clock(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append("early"))
        eng.schedule(100.0, lambda: fired.append("late"))
        eng.run(until=50.0)
        assert fired == ["early"]
        assert eng.now == 50.0

    def test_run_until_then_resume(self):
        eng = Engine()
        fired = []
        eng.schedule(100.0, lambda: fired.append("late"))
        eng.run(until=50.0)
        eng.run()
        assert fired == ["late"]
        assert eng.now == 100.0

    def test_run_until_beyond_last_event_advances_clock(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.run(until=500.0)
        assert eng.now == 500.0

    def test_max_events_guard(self):
        eng = Engine()

        def rescheduler():
            eng.schedule(1.0, rescheduler)

        eng.schedule(1.0, rescheduler)
        with pytest.raises(SimulationError):
            eng.run(max_events=100)

    def test_events_processed_counter(self):
        eng = Engine()
        for _ in range(7):
            eng.schedule(1.0, lambda: None)
        eng.run()
        assert eng.events_processed == 7


class TestBoundedStep:
    """The bounded drain ``step_until``: events up to a time, with the
    clock left at the last one executed."""

    def test_step_respects_until(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, lambda: fired.append("early"))
        eng.schedule(100.0, lambda: fired.append("late"))
        assert eng.step_until(50.0) == 1
        assert eng.step_until(50.0) == 0
        assert fired == ["early"]
        assert eng.now == 10.0          # clock not advanced past events
        eng.run()                       # the late event is still queued
        assert fired == ["early", "late"]

    def test_step_until_skips_tombstones_before_deciding(self):
        eng = Engine()
        fired = []
        doomed = eng.schedule(5.0, lambda: fired.append("doomed"))
        eng.schedule(60.0, lambda: fired.append("late"))
        eng.cancel(doomed)
        # The earliest *live* event is past the bound, even though a
        # cancelled one sits in front of it.
        assert eng.step_until(50.0) == 0
        assert fired == []
        assert eng.now == 0.0

    def test_callback_args_ride_through_the_event(self):
        eng = Engine()
        seen = []
        eng.schedule(5.0, seen.append, "a")
        eng.schedule(10.0, lambda x, y: seen.append((x, y)), 1, 2)
        eng.run()
        assert seen == ["a", (1, 2)]

    def test_schedule_at_forwards_args(self):
        eng = Engine()
        seen = []
        eng.schedule_at(7.0, seen.append, "abs")
        eng.run()
        assert seen == ["abs"]


class TestHotPathSemanticsUnchanged:
    """Pinned behavior the heap-layout optimization must not move:
    ``events_processed`` counts only executed callbacks, and cancelled
    events neither fire nor count."""

    def test_events_processed_excludes_cancelled(self):
        eng = Engine()
        fired = []
        handles = [eng.schedule(float(i), fired.append, i)
                   for i in range(10)]
        for handle in handles[::2]:
            eng.cancel(handle)
        eng.run()
        assert fired == [1, 3, 5, 7, 9]
        assert eng.events_processed == 5

    def test_events_processed_counts_across_runs(self):
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.schedule(100.0, lambda: None)
        eng.run(until=50.0)
        assert eng.events_processed == 1
        eng.run()
        assert eng.events_processed == 2

    def test_cancel_from_within_callback(self):
        eng = Engine()
        fired = []
        later = eng.schedule(20.0, lambda: fired.append("later"))
        eng.schedule(10.0, lambda: eng.cancel(later))
        eng.run()
        assert fired == []
        assert eng.events_processed == 1

    def test_cancelled_then_rescheduled_same_time_order(self):
        eng = Engine()
        order = []
        eng.schedule(5.0, order.append, "first")
        doomed = eng.schedule(5.0, order.append, "doomed")
        eng.schedule(5.0, order.append, "third")
        eng.cancel(doomed)
        eng.run()
        assert order == ["first", "third"]
