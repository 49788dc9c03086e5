"""Oracles for the end-to-end CXL sims' serving without an event queue.

``CxlEndToEndSim.run`` and ``CxlWriteEndToEndSim.run`` serve every
run, traced and faulted ones included, without the event queue.

Reads.  A read attempt is one ``complete`` event, and every send adds a
response's flits to the S2M wire's clock, so completions are due in
send order: a FIFO serves them.  Fault re-sends (timeout retries and
poison re-reads) go on a heap.  Writes.  At most one ``thread_tick``
per writer is pending, on a heap, and ``drained`` events are due in
send order, on a FIFO.  In both sims each event carries the sequence
number the event queue would have given it, and the smaller
(time, seq) head fires next.

:func:`des_read_run` and :func:`des_write_run` are the event-queue
bodies these replaced, kept here as the references; :func:`forced_des`
installs them.  The oracles check over random shapes, controller
settings and fault plans, traced and untraced, that both give the same
result, the same ``cxl.e2e.*`` metrics and the same trace events in
emission order, and report the runs in which events of two kinds fall
due at exactly one instant.
"""

from __future__ import annotations

from collections import defaultdict, deque
from contextlib import contextmanager, nullcontext
from dataclasses import asdict

import pytest
from hypothesis import event, given, settings, strategies as st

from repro.cxl.e2e_sim import (REQUEST_FLITS, RESPONSE_FLITS, TRACK_CORE,
                               TRACK_DRAM, TRACK_PORT, TRACK_WBUF,
                               CxlEndToEndSim, CxlWriteEndToEndSim,
                               E2eResult, _require_counts)
from repro.cxl.port import CxlPort
from repro.errors import SimulationError
from repro.faults import ZERO_FAULTS, FaultPlan, injector_for
from repro.mem.banks import Bank, DdrTimings, ddr4_2666_timings
from repro.sim.engine import Engine
from repro.telemetry import Telemetry, interpolate_percentile
from repro.units import SEC
from tests.sim.engine_events import engine_events

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


def des_read_run(self: CxlEndToEndSim, *, threads: int,
                 lines_per_thread: int = 1500) -> E2eResult:
    """``CxlEndToEndSim.run`` on the event queue: the fused read DES,
    one ``complete`` event per read attempt plus one per fault retry,
    kept as the reference the one read core is checked against."""
    _require_counts(threads=threads, lines_per_thread=lines_per_thread)
    tracer = self.telemetry.tracer
    traced = tracer.enabled
    latency_hist = self.telemetry.registry.histogram(
        "cxl.e2e.read.latency_ns")
    injector = injector_for(self.fault_plan, stream="e2e-read")
    flit_ns = 68 / self.port.raw_bandwidth * SEC
    if injector is not None:
        flit_ns *= injector.plan.link_slowdown
    hop_ns = self.port.phy.config.hop_latency_ns
    pack_ns = self.port.pack_ns
    timings = self.timings
    nbanks = timings.banks
    burst_ns = timings.burst_ns
    tfaw_ns = timings.tfaw_ns
    controller_ns = self.controller_ns
    closed_page = self.closed_page
    banks = [Bank(timings, i) for i in range(nbanks)]
    # Stagger regions by a row so threads start in distinct banks.
    row_lines = timings.lines_per_row
    stride = self.region_lines + row_lines

    m2s_free_at = 0.0
    s2m_free_at = 0.0
    dram_bus_free_at = 0.0
    retry_at = 0.0
    completed = 0
    last_done = 0.0
    next_line = [0] * threads       # per-thread progress
    latencies: list[float] = []
    activate_times: deque[float] = deque(maxlen=4)

    # ``carry`` runs one read attempt through every stage: the M2S
    # wire, the device (controller, banks, DRAM bus) and the S2M
    # wire, each on the clock its own event used to carry,
    # ``now + (t - now)``, which is not always ``t``.  ``attempt``
    # numbers the send for one line (1 = first issue).
    def carry(thread: int, line: int, now: float,
              attempt: int) -> float | None:
        """When the attempt sent at ``now`` is back at the host, or
        ``None`` when a fault timeout drops it at the device; the
        host then re-issues it at ``retry_at``."""
        nonlocal m2s_free_at, dram_bus_free_at, s2m_free_at, retry_at
        sends = REQUEST_FLITS if injector is None \
            else injector.crc_transmissions(REQUEST_FLITS,
                                            "m2s", line, attempt)
        start = now + pack_ns
        start = start if start >= m2s_free_at else m2s_free_at
        m2s_free_at = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "m2s.memrd", start,
                            sends * flit_ns, thread=thread)
        # Device stage.  Every send adds at least one flit_ns to
        # m2s_free_at, so arrivals strictly increase in send order:
        # the device sees requests in exactly this order, and only
        # this stage touches the banks and the DRAM bus.
        now = now + (m2s_free_at + hop_ns - now)
        if injector is not None \
                and attempt <= injector.plan.max_retries \
                and injector.timeout(line, attempt):
            # Transient controller timeout: the request is dropped
            # on the floor; the host waits it out and re-issues.
            injector.recovery()
            if traced:
                tracer.instant(TRACK_WBUF, "fault-timeout",
                               now, thread=thread)
            retry_at = now + injector.plan.timeout_ns
            return None
        row_index = line // row_lines
        bank_index = row_index % nbanks
        row = row_index // nbanks
        bank = banks[bank_index]
        if closed_page:
            bank.open_row = None       # auto-precharged after use
        issue_at = now + controller_ns
        if injector is not None:
            stall = injector.stall_ns(line, attempt)
            if stall:
                if traced:
                    tracer.instant(TRACK_WBUF, "fault-stall",
                                   now, thread=thread)
                issue_at += stall
        if bank.open_row != row:
            # tFAW: at most four activates in any window.
            if len(activate_times) == 4:
                window_at = activate_times[0] + tfaw_ns
                if window_at > issue_at:
                    issue_at = window_at
            activate_times.append(issue_at)
        data_at, hit = bank.access(row, issue_at)
        # The device data bus serializes bursts.
        burst_start = data_at if data_at >= dram_bus_free_at \
            else dram_bus_free_at
        dram_bus_free_at = burst_start + burst_ns
        if traced:
            tracer.complete(TRACK_DRAM, "burst", burst_start,
                            burst_ns, bank=bank_index, hit=hit)
        # S2M stage.  Each burst adds burst_ns to dram_bus_free_at
        # (a timeout returns before touching the bus), so responses
        # reach the wire in device order, which is send order.
        now = now + (dram_bus_free_at - now)
        sends = RESPONSE_FLITS if injector is None \
            else injector.crc_transmissions(RESPONSE_FLITS,
                                            "s2m", line, attempt)
        start = now if now >= s2m_free_at else s2m_free_at
        s2m_free_at = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "s2m.drs", start,
                            sends * flit_ns, thread=thread)
        done_at = s2m_free_at + hop_ns + pack_ns
        return now + (done_at - now)

    # One event per read attempt (``complete``), plus one per
    # fault retry.  Events due at exactly one instant fire in
    # the order they were scheduled, and ``complete`` and a
    # timeout retry are both scheduled from ``send``, so such a
    # tie between different requests' events can resolve in
    # another order than with a stage event each
    # (tests/cxl/test_e2e_fusion.py).
    engine = Engine()
    schedule, schedule_at = engine.schedule, engine.schedule_at

    def launch(thread: int, now: float) -> None:
        index = next_line[thread]
        if index >= lines_per_thread:
            return
        next_line[thread] = index + 1
        send(thread, thread * stride + index, now, 1)

    def send(thread: int, line: int, issued_at: float,
             attempt: int) -> None:
        done_at = carry(thread, line, engine.now, attempt)
        if done_at is None:
            schedule_at(retry_at, send, thread, line, issued_at,
                        attempt + 1)
        else:
            schedule_at(done_at, complete, thread, line,
                        issued_at, attempt)

    def complete(thread: int, line: int, issued_at: float,
                 attempt: int) -> None:
        nonlocal completed, last_done
        now = engine.now
        if injector is not None \
                and attempt <= injector.plan.max_retries \
                and injector.poisoned(line, attempt):
            # Poisoned DRS: data arrived but is unusable;
            # discard and re-read after the backoff.  The MLP
            # slot stays occupied — poison steals host
            # parallelism.
            injector.recovery()
            if traced:
                tracer.instant(TRACK_PORT, "fault-poison",
                               now, thread=thread)
            schedule(injector.plan.retry_backoff_ns,
                     send, thread, line, issued_at, attempt + 1)
            return
        completed += 1
        last_done = now
        latency = now - issued_at
        latencies.append(latency)
        latency_hist.record(latency)
        if traced:
            tracer.complete(TRACK_CORE, "read", issued_at,
                            latency, thread=thread)
        launch(thread, now)     # the freed fill buffer refills

    for thread in range(threads):
        for _ in range(self.mlp_per_thread):
            launch(thread, 0.0)
    engine.run()
    expected = threads * lines_per_thread
    if completed != expected:
        raise SimulationError(
            f"only {completed} of {expected} completed")
    row_hits = sum(b.row_hits for b in banks)
    row_misses = sum(b.row_misses for b in banks)
    registry = self.telemetry.registry
    registry.counter("cxl.e2e.read.completed").inc(completed)
    registry.counter("cxl.e2e.read.row_hits").inc(row_hits)
    registry.counter("cxl.e2e.read.row_misses").inc(row_misses)
    latencies.sort()
    return E2eResult(
        threads=threads, completed=completed,
        elapsed_ns=last_done,
        row_hits=row_hits, row_misses=row_misses,
        p50_ns=interpolate_percentile(latencies, 50.0),
        p99_ns=interpolate_percentile(latencies, 99.0),
        faults_injected=injector.injected if injector else 0,
        faults_recovered=injector.recovered if injector else 0)


def des_write_run(self: CxlWriteEndToEndSim, *, threads: int,
                  lines_per_thread: int = 1200) -> E2eResult:
    """``CxlWriteEndToEndSim.run`` on the event queue: the fused
    nt-store DES, one ``thread_tick`` event per store and one
    ``drained`` event per line, kept as the reference the engine-free
    write path is checked against."""
    _require_counts(threads=threads, lines_per_thread=lines_per_thread)
    engine = Engine()
    schedule, schedule_at = engine.schedule, engine.schedule_at
    tracer = self.telemetry.tracer
    traced = tracer.enabled
    injector = injector_for(self.fault_plan, stream="e2e-write")
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
    queue, through :func:`des_read_run` and :func:`des_write_run`."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(CxlEndToEndSim, "run", des_read_run)
        patch.setattr(CxlWriteEndToEndSim, "run", des_write_run)
        yield


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


def _kinds_tie(log: list[tuple[float, str]]) -> bool:
    """Whether events of two kinds (a read's ``complete`` and ``send``,
    a write's ``thread_tick`` and ``drained``) were due at exactly one
    instant."""
    kinds = defaultdict(set)
    for time, name in log:
        kinds[time].add(name)
    return any(len(names) > 1 for names in kinds.values())


def _observe(sim_class, sim_kwargs: dict, threads: int, lines: int, *,
             traced: bool, des: bool):
    """One run's result, metrics and trace events, how many times it
    ran the event queue, and the events it scheduled there."""
    telemetry = Telemetry.on() if traced else Telemetry()
    sim = sim_class(telemetry=telemetry, **sim_kwargs)
    with engine_events() as calls, scheduled_events() as log, \
            forced_des() if des else nullcontext():
        result = sim.run(threads=threads, lines_per_thread=lines)
    events = [event.key() for event in telemetry.tracer.events]
    return (result, telemetry.registry.snapshot(), events), len(calls), log


def _check_against_des(sim_class, sim_kwargs: dict, threads: int,
                       lines: int, *, traced: bool) -> bool:
    """Assert that a run matches :func:`des_read_run` or
    :func:`des_write_run` on the same inputs; returns whether two
    event kinds fell due at one instant on the event queue."""
    fast, fast_runs, _ = _observe(sim_class, sim_kwargs, threads, lines,
                                  traced=traced, des=False)
    reference, des_runs, log = _observe(sim_class, sim_kwargs, threads,
                                        lines, traced=traced, des=True)
    assert (fast_runs, des_runs) == (0, 1)
    assert fast == reference
    return _kinds_tie(log)


@settings(max_examples=80, deadline=None)
@given(threads=st.integers(min_value=1, max_value=32),
       lines=st.integers(min_value=1, max_value=300),
       mlp=st.integers(min_value=1, max_value=24),
       controller_ns=st.floats(min_value=0.0, max_value=300.0),
       closed_page=st.booleans(),
       region_lines=st.one_of(st.sampled_from([1, 64, 1 << 18]),
                              st.integers(min_value=1, max_value=1 << 20)),
       plan=fault_plans, traced=st.booleans())
def test_engine_free_run_matches_the_event_queue(threads, lines, mlp,
                                                 controller_ns,
                                                 closed_page,
                                                 region_lines, plan,
                                                 traced):
    sim_kwargs = {"mlp_per_thread": mlp, "controller_ns": controller_ns,
                  "closed_page": closed_page, "region_lines": region_lines,
                  "fault_plan": plan}
    event("fill buffers refill" if lines > mlp else "no refill")
    tie = _check_against_des(CxlEndToEndSim, sim_kwargs, threads, lines,
                             traced=traced)
    event("completion/re-send tie" if tie else "no completion/re-send tie")


def test_read_tie_fires_in_scheduling_order():
    """A timeout re-send falls due at exactly the instant of another
    read's ``complete`` (inputs hypothesis found for the fusion oracle);
    the event scheduled first fires first on both paths."""
    sim_kwargs = {"mlp_per_thread": 1, "controller_ns": 141.0,
                  "fault_plan": FaultPlan(
                      timeout_rate=0.125, stall_ns=0.0, timeout_ns=250.0,
                      retry_backoff_ns=0.0, max_retries=1)}
    assert _check_against_des(CxlEndToEndSim, sim_kwargs, 19, 9,
                              traced=True)


def _engine_runs(sim) -> int:
    with engine_events() as calls:
        sim.run(threads=4, lines_per_thread=50)
    return len(calls)


def test_eligible_read_runs_build_no_event_queue():
    assert _engine_runs(CxlEndToEndSim()) == 0
    assert _engine_runs(CxlEndToEndSim(telemetry=Telemetry())) == 0
    # An inactive plan draws no faults: the fault-free path.
    assert _engine_runs(CxlEndToEndSim(fault_plan=ZERO_FAULTS)) == 0


@pytest.mark.parametrize("telemetry, plan", [
    (Telemetry.on(), None),
    (Telemetry(), FaultPlan(poison_rate=0.01, seed=3)),
    (Telemetry(), FaultPlan(link_width_fraction=0.5)),
    (Telemetry.on(), FaultPlan(crc_rate=0.05, timeout_rate=0.05,
                               poison_rate=0.05, stall_rate=0.05, seed=3)),
], ids=["traced", "fault-plan", "slowed-link", "traced-fault-plan"])
def test_no_read_run_calls_engine_run(telemetry, plan):
    """Traced and faulted read runs, like fault-free ones, run no event
    queue."""
    sim = CxlEndToEndSim(fault_plan=plan, telemetry=telemetry)
    assert _engine_runs(sim) == 0


def test_engine_free_run_sets_no_engine_gauges():
    """A read run records its four ``cxl.e2e.read.*`` metrics and no
    other."""
    telemetry = Telemetry()
    CxlEndToEndSim(telemetry=telemetry).run(threads=2, lines_per_thread=20)
    assert telemetry.registry.names() == [
        "cxl.e2e.read.completed", "cxl.e2e.read.latency_ns",
        "cxl.e2e.read.row_hits", "cxl.e2e.read.row_misses"]


def test_write_runs_build_no_event_queue():
    """Untraced, traced, faulted and slowed-link write runs alike run
    no event queue."""
    for telemetry, plan in [
            (Telemetry(), None),
            (Telemetry.on(), None),
            (Telemetry.on(), FaultPlan(crc_rate=0.05, stall_rate=0.05,
                                       seed=3)),
            (Telemetry(), FaultPlan(link_width_fraction=0.5))]:
        sim = CxlWriteEndToEndSim(fault_plan=plan, telemetry=telemetry)
        assert _engine_runs(sim) == 0


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
    tie = _check_against_des(CxlWriteEndToEndSim, sim_kwargs, threads,
                             lines, traced=traced)
    event("tick/drain tie" if tie else "no tick/drain tie")


def test_write_tie_fires_in_scheduling_order():
    """A line's drain falls due at exactly the instant of a later tick
    of its writer (``controller_ns`` found by a search); the drain was
    scheduled first, so it fires first on both paths."""
    sim_kwargs = {"buffer_entries": 160, "issue_gap_ns": 6.0,
                  "controller_ns": 31.341046687453005}
    assert _check_against_des(CxlWriteEndToEndSim, sim_kwargs, 1, 300,
                              traced=True)


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
