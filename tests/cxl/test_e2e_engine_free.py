"""Oracles for the end-to-end CXL sims' serving without an event queue.

Reads.  Without a fault plan a read attempt is one ``complete`` event,
and every send adds a response's flits to the S2M wire's clock, so
completions are due in send order; exact ties fire in scheduling
order, which is send order too.  The event queue is then a FIFO, and
``CxlEndToEndSim.run`` serves such a run, untraced, from a deque of the
reads in flight instead.  This module forces the event queue on the
same inputs, by patching the private eligibility predicate, and checks
over random shapes, MLP depths, controller latencies, page policies
and region sizes that both give the same :class:`E2eResult` and record
the same ``cxl.e2e.*`` metrics.  Both paths run every stage through
one helper, so there is no exact-tie caveat: the FIFO pops reads in
the order the queue would fire them.

Writes.  ``CxlWriteEndToEndSim.run`` serves every run, traced and
faulted ones included, from a heap of the pending ``thread_tick``
events and a FIFO of the pending ``drained`` events, each tagged with
the sequence number the event queue would have given it.
:func:`des_write_run` is the event-queue body it replaced, kept here
as the reference; :func:`forced_des` installs it.  The write oracle
checks that both give the same result, the same ``cxl.e2e.*`` and
``faults.*`` metrics and the same trace events in emission order, less
the engine's own ``sim.engine`` run slice, and reports the runs in
which a tick and a drain fall due at exactly one instant.
"""

from __future__ import annotations

from collections import defaultdict, deque
from contextlib import contextmanager, nullcontext
from dataclasses import asdict

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.cxl.e2e_sim as e2e_sim
from repro.cxl.e2e_sim import (TRACK_DRAM, TRACK_PORT, TRACK_WBUF,
                               CxlEndToEndSim, CxlWriteEndToEndSim,
                               E2eResult, _require_counts)
from repro.cxl.port import CxlPort
from repro.errors import SimulationError
from repro.faults import ZERO_FAULTS, FaultPlan, injector_for
from repro.mem.banks import Bank, DdrTimings, ddr4_2666_timings
from repro.sim.engine import Engine
from repro.telemetry import Telemetry
from repro.units import SEC

COMPARED_METRICS = ("cxl.e2e.", "faults.")

rates = st.floats(min_value=0.0, max_value=0.2)

fault_plans = st.one_of(
    st.none(),
    # All rates zero: inactive at full width, a slowed link below it.
    st.builds(FaultPlan,
              link_width_fraction=st.sampled_from([1.0, 0.5, 0.25]),
              seed=st.integers(min_value=0, max_value=2**16)),
    st.builds(FaultPlan,
              crc_rate=rates, poison_rate=rates, timeout_rate=rates,
              stall_rate=rates,
              stall_ns=st.sampled_from([0.0, 37.5, 400.0]),
              timeout_ns=st.sampled_from([0.0, 250.0, 2_000.0]),
              retry_backoff_ns=st.sampled_from([0.0, 13.0, 200.0]),
              max_retries=st.integers(min_value=1, max_value=8),
              link_width_fraction=st.sampled_from([1.0, 0.5, 0.25]),
              seed=st.integers(min_value=0, max_value=2**16)))


def des_write_run(self: CxlWriteEndToEndSim, *, threads: int,
                  lines_per_thread: int = 1200) -> E2eResult:
    """``CxlWriteEndToEndSim.run`` on the event queue: the fused
    nt-store DES, one ``thread_tick`` event per store and one
    ``drained`` event per line, kept as the reference the engine-free
    write path is checked against."""
    _require_counts(threads=threads, lines_per_thread=lines_per_thread)
    engine = Engine(telemetry=self.telemetry)
    schedule, schedule_at = engine.schedule, engine.schedule_at
    tracer = self.telemetry.tracer
    traced = tracer.enabled
    injector = injector_for(self.fault_plan, stream="e2e-write",
                            telemetry=self.telemetry)
    flit_ns = 68 / self.port.raw_bandwidth * SEC
    if injector is not None:
        flit_ns *= injector.plan.link_slowdown
    hop_ns = self.port.phy.config.hop_latency_ns
    timings = self.timings
    nbanks = timings.banks
    burst_ns = timings.burst_ns
    lines_per_row = timings.lines_per_row
    stride = self.region_lines + lines_per_row
    issue_gap_ns = self.issue_gap_ns
    controller_ns = self.controller_ns
    buffer_entries = self.buffer_entries
    request_flits = self.WRITE_REQUEST_FLITS
    banks = [Bank(timings, i) for i in range(nbanks)]

    m2s_free_at = 0.0
    dram_bus_free_at = 0.0
    credits = buffer_entries
    completed = 0
    last_done = 0.0
    stalls = 0
    next_line = [0] * threads
    waiting_for_credit: deque[tuple[int, int]] = deque()
    backlog_cap = threads * 12
    stalled_threads: list[int] = []

    def occupancy_sample(now: float) -> None:
        tracer.count(TRACK_WBUF, "occupancy", now,
                     buffer_entries - credits)

    def thread_tick(thread: int) -> None:
        """A writer produces one line per issue gap, credits allowing."""
        nonlocal credits, stalls
        index = next_line[thread]
        if index >= lines_per_thread:
            return
        next_line[thread] = index + 1
        line = thread * stride + index
        if credits > 0:
            credits -= 1
            if traced:
                occupancy_sample(engine.now)
            send(thread, line)
        else:
            stalls += 1
            if traced:
                tracer.instant(TRACK_WBUF, "credit-stall", engine.now,
                               thread=thread)
            waiting_for_credit.append((thread, line))
        # Pace the next store; a full WC pipeline stalls naturally
        # because the credit queue backs up.
        if len(waiting_for_credit) < backlog_cap:
            schedule(issue_gap_ns, thread_tick, thread)
        else:
            stalled_threads.append(thread)

    def send(thread: int, line: int) -> None:
        nonlocal m2s_free_at, dram_bus_free_at
        now = engine.now
        sends = request_flits if injector is None \
            else injector.crc_transmissions(request_flits, "m2s", line)
        start = max(now, m2s_free_at)
        m2s_free_at = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "m2s.rwd", start,
                            sends * flit_ns, thread=thread)
        # Buffer arrival.  Every send adds at least one flit_ns to
        # m2s_free_at, so lines reach the buffer in send-call order
        # and drain in that order; only this stage touches the
        # banks and the DRAM bus.  The controller is a pipeline
        # stage (latency, not occupancy); banks and the shared
        # data bus serialize.
        now = now + (m2s_free_at + hop_ns - now)
        latency = controller_ns
        if injector is not None:
            stall = injector.stall_ns("drain", line)
            if stall:
                if traced:
                    tracer.instant(TRACK_WBUF, "fault-stall", now)
                latency += stall
        row_index = line // lines_per_row
        bank = banks[row_index % nbanks]
        data_at, hit = bank.access(row_index // nbanks, now + latency)
        burst_start = max(data_at, dram_bus_free_at)
        dram_bus_free_at = burst_start + burst_ns
        if traced:
            tracer.complete(TRACK_DRAM, "drain-burst", burst_start,
                            burst_ns, bank=bank.index, hit=hit)
        # ``drained`` stays an event: it returns the credit that
        # ``thread_tick`` reads.  Scheduled here, it can resolve an
        # exact tie with a ``thread_tick`` in another order than
        # with a stage event of its own.
        schedule_at(now + (dram_bus_free_at - now), drained)

    def drained() -> None:
        nonlocal completed, last_done, credits
        completed += 1
        last_done = engine.now
        if waiting_for_credit:
            thread, line = waiting_for_credit.popleft()
            send(thread, line)
            if stalled_threads:
                schedule(issue_gap_ns, thread_tick,
                         stalled_threads.pop())
        else:
            credits += 1
            if traced:
                occupancy_sample(last_done)

    for thread in range(threads):
        schedule(thread * 0.5, thread_tick, thread)
    engine.run()
    expected = threads * lines_per_thread
    if completed != expected:
        raise SimulationError(
            f"only {completed} of {expected} drained")
    row_hits = sum(b.row_hits for b in banks)
    row_misses = sum(b.row_misses for b in banks)
    registry = self.telemetry.registry
    registry.counter("cxl.e2e.write.completed").inc(completed)
    registry.counter("cxl.e2e.write.credit_stalls").inc(stalls)
    registry.counter("cxl.e2e.write.row_hits").inc(row_hits)
    registry.counter("cxl.e2e.write.row_misses").inc(row_misses)
    return E2eResult(
        threads=threads, completed=completed,
        elapsed_ns=last_done,
        row_hits=row_hits, row_misses=row_misses,
        faults_injected=injector.injected if injector else 0,
        faults_recovered=injector.recovered if injector else 0)


@contextmanager
def forced_des():
    """Serve every read and write run inside the block on the event
    queue: reads through the patched eligibility predicate, writes
    through :func:`des_write_run`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e2e_sim, "_engine_free",
                      lambda injector, traced: False)
        patch.setattr(CxlWriteEndToEndSim, "run", des_write_run)
        yield


@contextmanager
def counted_engine_runs():
    """Yields a list that gains one entry per ``Engine.run`` call."""
    calls = []
    run = Engine.run

    def counted(engine, *args, **kwargs):
        calls.append(1)
        return run(engine, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", counted)
        yield calls


def _observe(sim_kwargs: dict, threads: int, lines: int, *, des: bool):
    """One read run's result and compared metrics, and how many times
    it ran the event queue."""
    telemetry = Telemetry.metrics_only()
    sim = CxlEndToEndSim(telemetry=telemetry, **sim_kwargs)
    with counted_engine_runs() as calls, \
            forced_des() if des else nullcontext():
        result = sim.run(threads=threads, lines_per_thread=lines)
    metrics = {key: value
               for key, value in telemetry.registry.snapshot().items()
               if key.startswith(COMPARED_METRICS)}
    return (result, metrics), len(calls)


@settings(max_examples=80, deadline=None)
@given(threads=st.integers(min_value=1, max_value=32),
       lines=st.integers(min_value=1, max_value=300),
       mlp=st.integers(min_value=1, max_value=24),
       controller_ns=st.floats(min_value=0.0, max_value=300.0),
       closed_page=st.booleans(),
       region_lines=st.one_of(st.sampled_from([1, 64, 1 << 18]),
                              st.integers(min_value=1, max_value=1 << 20)))
def test_engine_free_run_matches_the_event_queue(threads, lines, mlp,
                                                 controller_ns,
                                                 closed_page,
                                                 region_lines):
    sim_kwargs = {"mlp_per_thread": mlp, "controller_ns": controller_ns,
                  "closed_page": closed_page, "region_lines": region_lines}
    event("fill buffers refill" if lines > mlp else "no refill")
    fast, fast_runs = _observe(sim_kwargs, threads, lines, des=False)
    reference, des_runs = _observe(sim_kwargs, threads, lines, des=True)
    assert (fast_runs, des_runs) == (0, 1)
    assert fast == reference


def _engine_runs(sim) -> int:
    with counted_engine_runs() as calls:
        sim.run(threads=4, lines_per_thread=50)
    return len(calls)


def test_eligible_read_runs_build_no_event_queue():
    assert _engine_runs(CxlEndToEndSim()) == 0
    assert _engine_runs(CxlEndToEndSim(
        telemetry=Telemetry.metrics_only())) == 0
    # An inactive plan draws no faults: the fault-free path.
    assert _engine_runs(CxlEndToEndSim(fault_plan=ZERO_FAULTS)) == 0


@pytest.mark.parametrize("sim", [
    CxlEndToEndSim(telemetry=Telemetry.on()),
    CxlEndToEndSim(fault_plan=FaultPlan(poison_rate=0.01, seed=3)),
    CxlEndToEndSim(fault_plan=FaultPlan(link_width_fraction=0.5)),
], ids=["traced", "fault-plan", "slowed-link"])
def test_traced_faulted_and_write_runs_use_the_event_queue(sim):
    """Traced and faulted read runs stay on the event queue; write
    runs no longer do (:func:`test_write_runs_build_no_event_queue`)."""
    assert _engine_runs(sim) == 1


def _engine_gauges(telemetry: Telemetry) -> list[str]:
    return [key for key in telemetry.registry.snapshot()
            if key.startswith("sim.engine.")]


def test_engine_free_run_sets_no_engine_gauges():
    telemetry = Telemetry.metrics_only()
    CxlEndToEndSim(telemetry=telemetry).run(threads=2, lines_per_thread=20)
    assert not _engine_gauges(telemetry)


def test_write_runs_build_no_event_queue():
    """Untraced, traced, faulted and slowed-link write runs alike run
    no event queue and set no ``sim.engine.*`` gauge."""
    for telemetry, plan in [
            (Telemetry.metrics_only(), None),
            (Telemetry.on(), None),
            (Telemetry.on(), FaultPlan(crc_rate=0.05, stall_rate=0.05,
                                       seed=3)),
            (Telemetry.metrics_only(),
             FaultPlan(link_width_fraction=0.5))]:
        sim = CxlWriteEndToEndSim(fault_plan=plan, telemetry=telemetry)
        assert _engine_runs(sim) == 0
        assert not _engine_gauges(telemetry)
        assert "sim.engine" not in telemetry.tracer.tracks


@contextmanager
def scheduled_events():
    """Yields a list that gains ``(time, callback name)`` for every
    event scheduled on an :class:`Engine` inside the block."""
    log = []
    schedule, schedule_at = Engine.schedule, Engine.schedule_at

    def logged(method):
        def scheduled(engine, when, callback, *args):
            entry = method(engine, when, callback, *args)
            log.append((entry[0], callback.__name__))
            return entry
        return scheduled

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "schedule", logged(schedule))
        patch.setattr(Engine, "schedule_at", logged(schedule_at))
        yield log


def _tick_drain_tie(log: list[tuple[float, str]]) -> bool:
    """Whether a ``thread_tick`` and a ``drained`` event were due at
    exactly one instant."""
    kinds = defaultdict(set)
    for time, name in log:
        kinds[time].add(name)
    return any(len(names) > 1 for names in kinds.values())


def _observe_write(sim_kwargs: dict, threads: int, lines: int, *,
                   traced: bool, des: bool):
    """One write run's result, compared metrics and trace events (less
    the ``sim.engine`` track), how many times it ran the event queue,
    and the events it scheduled there."""
    telemetry = Telemetry.on() if traced else Telemetry.metrics_only()
    sim = CxlWriteEndToEndSim(telemetry=telemetry, **sim_kwargs)
    with counted_engine_runs() as calls, scheduled_events() as log, \
            forced_des() if des else nullcontext():
        result = sim.run(threads=threads, lines_per_thread=lines)
    metrics = {key: value
               for key, value in telemetry.registry.snapshot().items()
               if key.startswith(COMPARED_METRICS)}
    events = [event.key() for event in telemetry.tracer.events
              if event.track != "sim.engine"]
    return (result, metrics, events), len(calls), log


@settings(max_examples=80, deadline=None)
@given(threads=st.integers(min_value=1, max_value=32),
       lines=st.integers(min_value=1, max_value=300),
       buffer_entries=st.integers(min_value=1, max_value=160),
       issue_gap_ns=st.sampled_from([0.5, 0.75, 6.0, 9.5, 40.0]),
       controller_ns=st.one_of(st.sampled_from([0.0, 140.0]),
                               st.floats(min_value=0.0, max_value=1e4)),
       plan=fault_plans, traced=st.booleans())
def test_engine_free_write_matches_the_event_queue(threads, lines,
                                                   buffer_entries,
                                                   issue_gap_ns,
                                                   controller_ns, plan,
                                                   traced):
    sim_kwargs = {"buffer_entries": buffer_entries,
                  "issue_gap_ns": issue_gap_ns,
                  "controller_ns": controller_ns, "fault_plan": plan}
    fast, fast_runs, _ = _observe_write(sim_kwargs, threads, lines,
                                        traced=traced, des=False)
    reference, des_runs, log = _observe_write(sim_kwargs, threads, lines,
                                              traced=traced, des=True)
    event("tick/drain tie" if _tick_drain_tie(log)
          else "no tick/drain tie")
    assert (fast_runs, des_runs) == (0, 1)
    assert fast == reference


def test_write_tie_fires_in_scheduling_order():
    """A line's drain falls due at exactly the instant of a later tick
    of its writer (``controller_ns`` found by a search); the drain was
    scheduled first, so it fires first on both paths."""
    sim_kwargs = {"buffer_entries": 160, "issue_gap_ns": 6.0,
                  "controller_ns": 31.341046687453005}
    fast, _, _ = _observe_write(sim_kwargs, 1, 300, traced=True,
                                des=False)
    reference, _, log = _observe_write(sim_kwargs, 1, 300, traced=True,
                                       des=True)
    assert _tick_drain_tie(log)
    assert fast == reference


class _BackwardPort(CxlPort):
    """A port whose flits take negative time on the wire."""

    @property
    def raw_bandwidth(self) -> float:
        return -super().raw_bandwidth


class _BackwardBus(DdrTimings):
    """DRAM timings whose bursts take negative time on the data bus."""

    @property
    def burst_ns(self) -> float:
        return -super().burst_ns


def test_out_of_order_completion_names_the_line():
    """With time running backwards on every wire, a response can be
    due before the one sent ahead of it: no FIFO serves that."""
    sim = CxlEndToEndSim(port=_BackwardPort(), timings=_BackwardBus(
        **asdict(ddr4_2666_timings())))
    with pytest.raises(SimulationError, match=r"read of line \d+ "
                                              r"completes at .* before"):
        sim.run(threads=2, lines_per_thread=20)


def test_out_of_order_drain_names_the_line():
    """With bursts taking negative time on the DRAM bus, a line can
    fall due to drain before the line sent ahead of it: no FIFO serves
    that."""
    sim = CxlWriteEndToEndSim(port=_BackwardPort(), timings=_BackwardBus(
        **asdict(ddr4_2666_timings())))
    with pytest.raises(SimulationError, match=r"drain of line \d+ "
                                              r"is due at .* before"):
        sim.run(threads=2, lines_per_thread=20)
