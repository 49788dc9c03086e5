"""Calendar-queue scheduler pins: the semantics the batched hot path
must not move, plus a recorded event-order golden.

The generic engine contract lives in ``test_engine.py``.  This file
pins the calendar-specific machinery — run/future promotion, in-run
insertion behind the walk cursor, tombstones inside a batched drain,
``step_until`` bounds, compaction — and replays an adversarial workload
against ``engine_order_golden.json``.  The golden was recorded while a
binary-heap scheduler still ran beside the calendar queue, and both
produced it event for event.
"""

import json
import weakref
from pathlib import Path

import numpy as np
import pytest

import repro.sim.engine as engine_mod
from repro.errors import SimulationError
from repro.sim import Engine

GOLDEN = Path(__file__).with_name("engine_order_golden.json")


class TestSameInstantFifo:
    def test_same_instant_fires_in_schedule_order(self):
        eng = Engine()
        order = []
        for tag in range(20):
            eng.schedule(5.0, order.append, tag)
        eng.run()
        assert order == list(range(20))

    def test_fifo_survives_run_promotion(self):
        # Same-instant events split across the run/future boundary:
        # the first batch lands in the initial future list, the second
        # is scheduled from a callback after promotion.
        eng = Engine()
        order = []
        eng.schedule(1.0, lambda: [eng.schedule(4.0, order.append, t)
                                   for t in ("c", "d")])
        eng.schedule(5.0, order.append, "a")
        eng.schedule(5.0, order.append, "b")
        eng.run()
        assert order == ["a", "b", "c", "d"]


class TestTombstones:
    def test_cancel_in_future_list(self):
        eng = Engine()
        fired = []
        doomed = eng.schedule(10.0, fired.append, "doomed")
        eng.schedule(20.0, fired.append, "kept")
        eng.cancel(doomed)
        eng.run()
        assert fired == ["kept"]
        assert eng.events_processed == 1

    def test_cancel_after_in_run_insertion(self):
        # Cancel an event that was insort-ed into the *current* run
        # from a callback — the tombstone must be honored mid-drain.
        eng = Engine()
        fired = []

        def first():
            doomed = eng.schedule(1.0, fired.append, "doomed")
            eng.cancel(doomed)
            eng.schedule(2.0, fired.append, "kept")

        eng.schedule(5.0, first)
        eng.schedule(10.0, fired.append, "tail")
        eng.run()
        assert fired == ["kept", "tail"]

    def test_cancel_every_pending_event(self):
        eng = Engine()
        handles = [eng.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        for handle in handles:
            eng.cancel(handle)
        eng.run()
        assert eng.events_processed == 0
        assert eng.now == 0.0


class TestHandles:
    """An event's queue entry is its handle: cancel tombstones it in
    place and drops the callback and args it would have run with."""

    def test_cancel_after_fire_is_a_no_op(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(5.0, fired.append, "once")
        eng.schedule(10.0, fired.append, "after")
        eng.step_until(5.0)
        eng.cancel(handle)
        eng.run()
        assert fired == ["once", "after"]
        assert eng.events_processed == 2

    def test_cancel_twice_is_a_no_op(self):
        eng = Engine()
        fired = []
        handle = eng.schedule(5.0, fired.append, "doomed")
        eng.schedule(5.0, fired.append, "kept")
        eng.cancel(handle)
        eng.cancel(handle)
        eng.run()
        assert fired == ["kept"]
        assert eng.events_processed == 1

    def test_cancelled_handle_drops_callback_and_args(self):
        class Payload:
            pass

        eng = Engine()
        payload = Payload()
        ref = weakref.ref(payload)
        handle = eng.schedule(5.0, lambda p: None, payload)
        del payload
        assert ref() is not None        # the pending event holds it
        eng.cancel(handle)
        assert ref() is None
        assert handle[2] is None and handle[3] == ()

    def test_tombstones_do_not_count_as_processed(self):
        eng = Engine()
        fired = []
        handles = [eng.schedule(float(i), fired.append, i)
                   for i in range(6)]
        for handle in handles[1::2]:
            eng.cancel(handle)
        eng.step_until(2.0)
        assert eng.events_processed == 2
        eng.run()
        assert fired == [0, 2, 4]
        assert eng.events_processed == 3


class TestStepUntil:
    def test_executes_only_events_at_or_before_bound(self):
        eng = Engine()
        fired = []
        for t in (10.0, 20.0, 30.0, 40.0):
            eng.schedule(t, fired.append, t)
        assert eng.step_until(25.0) == 2
        assert fired == [10.0, 20.0]

    def test_clock_stays_at_last_event_not_bound(self):
        # Unlike run(until=...), step_until leaves the clock where the
        # last executed event put it.
        eng = Engine()
        eng.schedule(10.0, lambda: None)
        eng.step_until(50.0)
        assert eng.now == 10.0

    def test_boundary_event_included(self):
        eng = Engine()
        fired = []
        eng.schedule(25.0, fired.append, "edge")
        assert eng.step_until(25.0) == 1
        assert fired == ["edge"]

    def test_empty_queue_returns_zero(self):
        assert Engine().step_until(100.0) == 0

    def test_remaining_events_fire_on_resume(self):
        eng = Engine()
        fired = []
        eng.schedule(10.0, fired.append, "early")
        eng.schedule(100.0, fired.append, "late")
        eng.step_until(50.0)
        eng.run()
        assert fired == ["early", "late"]
        assert eng.now == 100.0

    def test_not_reentrant(self):
        eng = Engine()
        errors = []

        def nested():
            try:
                eng.step_until(100.0)
            except SimulationError as exc:
                errors.append(exc)

        eng.schedule(1.0, nested)
        eng.run()
        assert len(errors) == 1


class TestRunGuards:
    def test_max_events_raises_even_with_empty_queue(self):
        # The legacy loop checked the budget before polling the queue;
        # the batched drain must keep that order.
        eng = Engine()
        with pytest.raises(SimulationError):
            eng.run(max_events=0)

    def test_max_events_counts_only_executed(self):
        # Tombstones don't consume the budget; the budget check runs
        # *before* polling the queue, so executing exactly max_events
        # raises (the legacy loop's boundary, kept by the drain).
        eng = Engine()
        handles = [eng.schedule(float(i + 1), lambda: None)
                   for i in range(10)]
        for handle in handles[:8]:
            eng.cancel(handle)
        eng.run(max_events=3)              # 2 live events < budget
        assert eng.events_processed == 2
        eng2 = Engine()
        eng2.schedule(1.0, lambda: None)
        eng2.schedule(2.0, lambda: None)
        with pytest.raises(SimulationError):
            eng2.run(max_events=2)

    def test_run_not_reentrant(self):
        eng = Engine()
        errors = []

        def nested():
            try:
                eng.run()
            except SimulationError as exc:
                errors.append(exc)

        eng.schedule(1.0, nested)
        eng.run()
        assert len(errors) == 1


class TestCalendarInternals:
    def test_in_run_insertion_during_drain(self):
        # A callback schedules an event that lands between remaining
        # entries of the *current* run: it must be insort-ed after the
        # cursor and fire in time order within the same drain.
        eng = Engine()
        order = []
        eng.schedule(10.0, lambda: (order.append("first"),
                                    eng.schedule(5.0, order.append,
                                                 "inserted")))
        eng.schedule(20.0, order.append, "last")
        eng.run()
        assert order == ["first", "inserted", "last"]

    def test_compaction_preserves_order(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_COMPACT_THRESHOLD", 8)
        eng = Engine()
        fired = []
        handles = [eng.schedule(float(i), fired.append, i)
                   for i in range(100)]
        for handle in handles[::3]:
            eng.cancel(handle)
        eng.run()
        expected = [i for i in range(100) if i % 3 != 0]
        assert fired == expected
        assert eng.events_processed == len(expected)

    def test_compaction_with_mid_drain_insertions(self, monkeypatch):
        monkeypatch.setattr(engine_mod, "_COMPACT_THRESHOLD", 4)
        eng = Engine()
        fired = []

        def chain(n):
            fired.append(n)
            if n < 30:
                eng.schedule(1.0, chain, n + 1)

        eng.schedule(1.0, chain, 0)
        eng.run()
        assert fired == list(range(31))


def _random_workload(eng: Engine, seed: int) -> list:
    """Drive one engine with a seed-determined adversarial workload:
    mixed pre-scheduled and callback-scheduled events, same-instant
    clusters, cancellations, and step_until/run interleaving."""
    rng = np.random.default_rng(seed)
    trace = []
    pending = []

    def fire(tag):
        trace.append((round(eng.now, 6), tag))
        draw = rng.random()
        if draw < 0.35:
            pending.append(eng.schedule(float(rng.integers(0, 50)),
                                        fire, f"{tag}.c"))
        if draw < 0.10 and pending:
            eng.cancel(pending[int(rng.integers(0, len(pending)))])

    for i in range(200):
        time = float(rng.integers(0, 100))
        pending.append(eng.schedule(time, fire, f"p{i}"))
    for victim in rng.integers(0, 200, size=30):
        eng.cancel(pending[int(victim)])
    trace.append(("stepped", eng.step_until(40.0)))
    eng.run(until=120.0)
    eng.run()
    trace.append(("final", round(eng.now, 6), eng.events_processed))
    return trace


class TestEventOrderGolden:
    @pytest.mark.parametrize("seed", [0, 1, 2, 3, 4])
    def test_matches_recorded_trace(self, seed):
        golden = json.loads(GOLDEN.read_text())[str(seed)]
        trace = _random_workload(Engine(), seed)
        # JSON has no tuples; compare in its list form.
        assert json.loads(json.dumps(trace)) == golden
