"""Raw DES engine throughput: dispatched events per second.

Figure wall times conflate the engine with app-model work (RNG draws,
numpy latency tables, recorder updates).  This microbenchmark isolates
the scheduler itself: ``TIMERS`` self-rescheduling callbacks with
pre-drawn exponential gaps, so the measured loop is exactly
``schedule -> dispatch -> callback`` with a trivial callback body.
The workload exercises both calendar-queue regimes — in-run insertion
(a short gap lands before the current run's horizon) and future-append
(a long gap lands past it) — which is the same shape the app models
drive.

Run standalone::

    PYTHONPATH=src python benchmarks/engine_events_per_sec.py
    PYTHONPATH=src python benchmarks/engine_events_per_sec.py \
        --events 500000

or let ``bench_to_json.py`` fold the number into the
``engine.events_per_sec`` field of BENCH_<label>.json (see
docs/PERFORMANCE.md).
"""

from __future__ import annotations

import argparse
import sys
import time

DEFAULT_EVENTS = 200_000
TIMERS = 64
SEED = 7


def run_engine_load(events: int, *,
                    timers: int = TIMERS) -> tuple[int, float]:
    """Dispatch ~``events`` timer events; return (dispatched, seconds).

    Each timer callback reschedules itself with the next pre-drawn
    exponential gap until the shared budget runs out, so the engine
    sees a steady interleaved event stream rather than one pre-built
    queue — the schedule path is measured as much as the dispatch path.
    """
    import numpy as np

    from repro.sim import Engine

    rng = np.random.default_rng(SEED)
    gaps = rng.exponential(1_000.0, size=events + timers)
    engine = Engine()
    budget = [events]
    cursor = [timers]

    def tick() -> None:
        if budget[0] <= 0:
            return
        budget[0] -= 1
        gap = float(gaps[cursor[0]])
        cursor[0] += 1
        engine.schedule(gap, tick)

    for index in range(timers):
        engine.schedule(float(gaps[index]), tick)

    start = time.perf_counter()
    engine.run()
    elapsed = time.perf_counter() - start
    return engine.events_processed, elapsed


def events_per_sec(events: int = DEFAULT_EVENTS, *,
                   repeats: int = 3) -> float:
    """Best-of-``repeats`` engine throughput in events per second."""
    best = 0.0
    for _ in range(max(1, repeats)):
        dispatched, elapsed = run_engine_load(events)
        if elapsed > 0:
            best = max(best, dispatched / elapsed)
    return best


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Measure raw DES engine events/second")
    parser.add_argument("--events", type=int, default=DEFAULT_EVENTS,
                        help=f"events per run (default: {DEFAULT_EVENTS})")
    parser.add_argument("--repeats", type=int, default=3,
                        help="runs, best-of (default: 3)")
    args = parser.parse_args(argv)
    if args.events <= 0:
        print("error: --events must be positive", file=sys.stderr)
        return 2

    rate = events_per_sec(args.events, repeats=args.repeats)
    print(f"{rate:12,.0f} events/s "
          f"({args.events} events, best of {args.repeats})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
