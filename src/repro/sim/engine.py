"""The discrete-event engine: a clock plus a time-ordered event queue.

Design notes
------------
* Time is a ``float`` in nanoseconds, consistent with :mod:`repro.units`.
* Events scheduled for the same instant fire in scheduling order (a
  monotonically increasing sequence number breaks ties), which makes runs
  fully deterministic for a fixed seed.
* The engine knows nothing about resources or models; they are built on
  the two primitives here, :meth:`Engine.schedule` and
  :meth:`Engine.cancel` (:mod:`repro.sim.resources` is one such layer).

Hot-path layout
---------------
The queue is a two-level run queue in the calendar-queue family,
totally ordered by ``(time, seq)``.  The *current run* is a sorted list
walked by index; arrivals that land inside the run's time span are
``bisect.insort``-ed after the walk cursor (a C-level binary search +
memmove), while arrivals beyond it are appended, unsorted, to a
*future* list.  When the current run is exhausted the future list is
sorted wholesale (C Timsort over ``[time, seq, callback, args]`` entries,
near-linear on the mostly-ordered batches models actually generate)
and swapped in as the next run.  :meth:`Engine.run` drains the current
run in one interpreter loop — no per-event method call, no heap sift.
``tests/sim/test_engine_calendar.py`` pins the firing order against a
recorded event-order golden.

Each event is one list ``[time, seq, callback, args]`` that is both
the queue entry and the handle :meth:`Engine.schedule` returns, so an
event costs one allocation.  ``seq`` is unique, so list comparison
settles on ``(time, seq)`` and never reaches the callback.
Cancellation tombstones the entry in place — its callback becomes
``None`` and its args ``()``, dropping every reference the event held
— and tombstones are skipped exactly once, at the queue head.
Callbacks can carry positional arguments through the event
(``schedule(delay, fn, a, b)``), which lets hot models pass a bound
method plus its arguments instead of allocating a fresh closure per
request.
"""

from __future__ import annotations

import itertools
from bisect import insort
from typing import Any, Callable

from ..errors import SimulationError
from ..telemetry import NULL_TELEMETRY, Telemetry

# Compact the executed prefix of the current run once the walk cursor
# passes this many entries; keeps long prescheduled runs from pinning
# their whole history while staying amortized O(1) per event.
_COMPACT_THRESHOLD = 65536


class Engine:
    """Event loop with a nanosecond clock.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.schedule(10.0, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10.0]
    """

    def __init__(self, *, telemetry: Telemetry | None = None) -> None:
        self._now = 0.0
        self._seq = itertools.count()
        self._running = False
        self._processed = 0
        # A sorted current run walked by ``_pos`` + an unsorted future
        # list.  Every future entry's time is strictly greater than
        # ``_run_max`` (the current run's last time), so draining the
        # run before sorting the future preserves the global
        # (time, seq) order.
        self._run_list: list[list] = []
        self._pos = 0
        self._future: list[list] = []
        self._run_max = float("-inf")
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    @property
    def now(self) -> float:
        """Current simulation time in ns."""
        return self._now

    @property
    def events_processed(self) -> int:
        """Number of callbacks executed so far (for diagnostics)."""
        return self._processed

    def schedule(self, delay: float, callback: Callable[..., Any],
                 *args: Any) -> list:
        """Run ``callback(*args)`` at ``now + delay``; returns a
        cancellable handle."""
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past: delay={delay}")
        if callback is None:
            raise SimulationError("schedule() needs a callback, got "
                                  "callback=None")
        time = self._now + delay
        entry = [time, next(self._seq), callback, args]
        if time > self._run_max:
            self._future.append(entry)
        else:
            insort(self._run_list, entry, self._pos)
        return entry

    def schedule_at(self, time: float, callback: Callable[..., Any],
                    *args: Any) -> list:
        """Run ``callback(*args)`` at absolute time ``time``.

        The event is queued at exactly ``time``: going through a delay,
        ``now + (time - now)``, can round to a neighbouring float.
        """
        if time < self._now:
            raise SimulationError(f"cannot schedule into the past: "
                                  f"time={time} < now={self._now}")
        if callback is None:
            raise SimulationError("schedule_at() needs a callback, got "
                                  "callback=None")
        entry = [time, next(self._seq), callback, args]
        if time > self._run_max:
            self._future.append(entry)
        else:
            insort(self._run_list, entry, self._pos)
        return entry

    def cancel(self, handle: list) -> None:
        """Cancel a previously scheduled callback.

        Idempotent, and a no-op once the event has fired.  The entry
        drops its callback and args, so a cancelled timer no longer
        keeps the objects it would have been called with alive.
        """
        handle[2] = None
        handle[3] = ()

    def _drain(self, until: float | None,
               max_events: int | None) -> int:
        """Batched drain: one interpreter loop per run.

        Executes live events in ``(time, seq)`` order until the queue
        empties or the next event lies strictly after ``until``.
        Returns the number of callbacks executed.
        """
        executed = 0
        run = self._run_list
        pos = self._pos
        future = self._future
        now = self._now
        while True:
            if max_events is not None and executed >= max_events:
                self._pos = pos
                raise SimulationError(
                    f"exceeded max_events={max_events}; "
                    "model may not terminate")
            if pos >= len(run):
                if not future:
                    # Every entry has fired: drop them, so a drained
                    # engine pins none of their callbacks' arguments.
                    run.clear()
                    self._pos = 0
                    return executed
                future.sort()
                self._run_list = run = future
                self._future = future = []
                self._run_max = run[-1][0]
                pos = 0
                continue
            time, _seq, callback, args = run[pos]
            if callback is None:
                pos += 1
                continue
            if until is not None and time > until:
                self._pos = pos
                return executed
            pos += 1
            if pos >= _COMPACT_THRESHOLD:
                del run[:pos]
                pos = 0
            self._pos = pos
            if time < now:
                raise SimulationError(
                    f"event at t={time} before now={now}")
            self._now = now = time
            self._processed += 1
            executed += 1
            callback(*args)

    def step_until(self, until: float) -> int:
        """Execute every pending event with ``time <= until``.

        Unlike :meth:`run` the clock is left at the last executed
        event, not advanced to ``until``.  Returns the number of
        callbacks executed.
        """
        if self._running:
            raise SimulationError("Engine.step_until() is not reentrant")
        self._running = True
        try:
            return self._drain(until, None)
        finally:
            self._running = False

    def run(self, until: float | None = None,
            max_events: int | None = None) -> None:
        """Drain the event queue.

        ``until`` stops the clock at an absolute time (events strictly
        after it stay pending and the clock is left *at* ``until``).
        ``max_events`` bounds the number of callbacks — a guard against
        accidentally non-terminating models.
        """
        if self._running:
            raise SimulationError("Engine.run() is not reentrant")
        self._running = True
        run_start = self._now
        try:
            self._drain(until, max_events)
            if until is not None and self._now < until:
                self._now = until
        finally:
            self._running = False
            if self.telemetry.enabled:
                self.telemetry.tracer.complete(
                    "sim.engine", "run", run_start,
                    self._now - run_start, events=self._processed)
            registry = self.telemetry.registry
            registry.gauge("sim.engine.events_processed").set(
                self._processed)
            registry.gauge("sim.engine.now_ns").set(self._now)
