"""Oracle for the fused end-to-end CXL pipelines.

``CxlEndToEndSim`` runs its device and S2M stages, and the nt-store
pipeline its buffer-arrival stage, inside the ``send`` step upstream
of them instead of as events of their own.  That is sound only if each
stage sees its requests in ``send``-call order and each folded stage
keeps the clock its event used to carry.  This module keeps the
unfused pipelines — one engine event per stage, exactly as they ran
before the fold — as references, and checks over random shapes,
controller settings and fault plans that the fused sims return the
same :class:`E2eResult`, record the same ``cxl.e2e.*`` metrics, and
trace the same events.  Both sims serve every run without
the event queue, in the order the fused DES of
``tests/cxl/test_e2e_engine_free.py`` fires its events, so the checks
here cover that path.

Every event keeps its time, but events due at the same instant fire in
the order they were scheduled, and the fold schedules ``complete``, a
timeout retry and ``drained`` from ``send`` instead of from the stage
events it removed.  Two such events of different kinds that land on
exactly the same float instant may therefore swap, and from there the
runs differ.  Each reference numbers the moments at which the fused
sim would schedule its ``complete``/retry (or ``thread_tick``/
``drained``) events and reports whether two events due at one instant
fired against that order.  If not, the fused run fires every event in
the same order and the outputs must be identical; if so, only what no
event order can move must match: completions and the fault decisions,
which are keyed on (line, attempt).  Such a swap needs round inputs;
the explicit ``@example`` below is one that hypothesis found.
"""

from __future__ import annotations

import itertools
from collections import deque

from hypothesis import event, example, given, settings, strategies as st

from repro.cxl.e2e_sim import (REQUEST_FLITS, RESPONSE_FLITS, TRACK_CORE,
                               TRACK_DRAM, TRACK_PORT, TRACK_WBUF,
                               CxlEndToEndSim, CxlWriteEndToEndSim,
                               E2eResult)
from repro.errors import SimulationError
from repro.faults import FaultPlan, injector_for
from repro.mem.banks import Bank
from repro.sim.engine import Engine
from repro.telemetry import Telemetry, interpolate_percentile
from repro.units import SEC
from tests.cxl.test_e2e_engine_free import fault_plans, forced_des
from tests.sim.engine_events import engine_events


def reference_read(sim: CxlEndToEndSim, *, threads: int,
                   lines_per_thread: int) -> tuple[E2eResult, bool]:
    """The read pipeline with one event per stage: send -> device ->
    S2M -> complete.

    Also returns whether two ``complete`` or retry events due at the
    same instant fired in another order than the fused sim schedules
    them: ``complete`` and a timeout retry when their attempt is sent,
    a poison retry when its ``complete`` fires.
    """
    engine = Engine()
    schedule = engine.schedule
    tracer = sim.telemetry.tracer
    traced = tracer.enabled
    latency_hist = sim.telemetry.registry.histogram(
        "cxl.e2e.read.latency_ns")
    injector = injector_for(sim.fault_plan, stream="e2e-read")
    flit_ns = 68 / sim.port.raw_bandwidth * SEC
    if injector is not None:
        flit_ns *= injector.plan.link_slowdown
    hop_ns = sim.port.phy.config.hop_latency_ns
    pack_ns = sim.port.pack_ns
    timings = sim.timings
    nbanks = timings.banks
    banks = [Bank(timings, i) for i in range(nbanks)]
    row_lines = timings.lines_per_row
    stride = sim.region_lines + row_lines
    state = {"m2s": 0.0, "s2m": 0.0, "bus": 0.0, "completed": 0,
             "last_done": 0.0}
    next_line = [0] * threads
    latencies: list[float] = []
    activate_times: deque[float] = deque(maxlen=4)
    moment = itertools.count()
    sent_at: dict[tuple[int, int], int] = {}   # (line, attempt) -> moment
    fired: list[tuple[float, int]] = []        # (time, fused moment)

    def launch(thread, now):
        index = next_line[thread]
        if index >= lines_per_thread:
            return
        next_line[thread] = index + 1
        send(thread, thread * stride + index, now, 1)

    def send(thread, line, issued_at, attempt):
        now = engine.now
        sent_at[line, attempt] = next(moment)
        sends = REQUEST_FLITS if injector is None \
            else injector.crc_transmissions(REQUEST_FLITS, "m2s", line,
                                            attempt)
        start = max(now + pack_ns, state["m2s"])
        state["m2s"] = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "m2s.memrd", start,
                            sends * flit_ns, thread=thread)
        arrive = state["m2s"] + hop_ns
        schedule(arrive - now, device_handle, thread, line, issued_at,
                 attempt)

    def device_handle(thread, line, issued_at, attempt):
        now = engine.now
        if injector is not None \
                and attempt <= injector.plan.max_retries \
                and injector.timeout(line, attempt):
            injector.recovery()
            if traced:
                tracer.instant(TRACK_WBUF, "fault-timeout", now,
                               thread=thread)
            schedule(injector.plan.timeout_ns, resend,
                     sent_at[line, attempt], thread, line, issued_at,
                     attempt + 1)
            return
        row_index = line // row_lines
        bank_index = row_index % nbanks
        row = row_index // nbanks
        bank = banks[bank_index]
        if sim.closed_page:
            bank.open_row = None
        issue_at = now + sim.controller_ns
        if injector is not None:
            stall = injector.stall_ns(line, attempt)
            if stall:
                if traced:
                    tracer.instant(TRACK_WBUF, "fault-stall", now,
                                   thread=thread)
                issue_at += stall
        if bank.open_row != row:
            if len(activate_times) == 4:
                issue_at = max(issue_at,
                               activate_times[0] + timings.tfaw_ns)
            activate_times.append(issue_at)
        data_at, hit = bank.access(row, issue_at)
        burst_start = max(data_at, state["bus"])
        state["bus"] = burst_start + timings.burst_ns
        if traced:
            tracer.complete(TRACK_DRAM, "burst", burst_start,
                            timings.burst_ns, bank=bank_index, hit=hit)
        schedule(state["bus"] - now, respond, thread, line, issued_at,
                 attempt)

    def respond(thread, line, issued_at, attempt):
        now = engine.now
        sends = RESPONSE_FLITS if injector is None \
            else injector.crc_transmissions(RESPONSE_FLITS, "s2m", line,
                                            attempt)
        start = max(now, state["s2m"])
        state["s2m"] = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "s2m.drs", start,
                            sends * flit_ns, thread=thread)
        done_at = state["s2m"] + hop_ns + pack_ns
        schedule(done_at - now, complete, thread, line, issued_at,
                 attempt)

    def resend(scheduled, thread, line, issued_at, attempt):
        fired.append((engine.now, scheduled))
        send(thread, line, issued_at, attempt)

    def complete(thread, line, issued_at, attempt):
        now = engine.now
        fired.append((now, sent_at[line, attempt]))
        if injector is not None \
                and attempt <= injector.plan.max_retries \
                and injector.poisoned(line, attempt):
            injector.recovery()
            if traced:
                tracer.instant(TRACK_PORT, "fault-poison", now,
                               thread=thread)
            schedule(injector.plan.retry_backoff_ns, resend,
                     next(moment), thread, line, issued_at, attempt + 1)
            return
        state["completed"] += 1
        state["last_done"] = now
        latency = now - issued_at
        latencies.append(latency)
        latency_hist.record(latency)
        if traced:
            tracer.complete(TRACK_CORE, "read", issued_at, latency,
                            thread=thread)
        launch(thread, now)

    for thread in range(threads):
        for _ in range(sim.mlp_per_thread):
            launch(thread, 0.0)
    engine.run()
    completed = state["completed"]
    if completed != threads * lines_per_thread:
        raise SimulationError("reference read run did not complete")
    row_hits = sum(b.row_hits for b in banks)
    row_misses = sum(b.row_misses for b in banks)
    registry = sim.telemetry.registry
    registry.counter("cxl.e2e.read.completed").inc(completed)
    registry.counter("cxl.e2e.read.row_hits").inc(row_hits)
    registry.counter("cxl.e2e.read.row_misses").inc(row_misses)
    latencies.sort()
    return E2eResult(
        threads=threads, completed=completed,
        elapsed_ns=state["last_done"],
        row_hits=row_hits, row_misses=row_misses,
        p50_ns=interpolate_percentile(latencies, 50.0),
        p99_ns=interpolate_percentile(latencies, 99.0),
        faults_injected=injector.injected if injector else 0,
        faults_recovered=injector.recovered if injector else 0), \
        _swapped(fired)


def reference_write(sim: CxlWriteEndToEndSim, *, threads: int,
                    lines_per_thread: int) -> tuple[E2eResult, bool]:
    """The nt-store pipeline with one event per stage: thread_tick ->
    send -> buffer arrival -> drained.

    Also returns whether two ``thread_tick`` or ``drained`` events due
    at the same instant fired in another order than the fused sim
    schedules them: ``drained`` when its line is sent.
    """
    engine = Engine()
    schedule = engine.schedule
    tracer = sim.telemetry.tracer
    traced = tracer.enabled
    injector = injector_for(sim.fault_plan, stream="e2e-write")
    flit_ns = 68 / sim.port.raw_bandwidth * SEC
    if injector is not None:
        flit_ns *= injector.plan.link_slowdown
    hop_ns = sim.port.phy.config.hop_latency_ns
    timings = sim.timings
    nbanks = timings.banks
    lines_per_row = timings.lines_per_row
    stride = sim.region_lines + lines_per_row
    buffer_entries = sim.buffer_entries
    banks = [Bank(timings, i) for i in range(nbanks)]
    state = {"m2s": 0.0, "bus": 0.0, "credits": buffer_entries,
             "completed": 0, "last_done": 0.0, "stalls": 0}
    next_line = [0] * threads
    waiting_for_credit: deque[tuple[int, int]] = deque()
    backlog_cap = threads * 12
    stalled_threads: list[int] = []
    moment = itertools.count()
    sent_at: dict[int, int] = {}                # line -> moment
    fired: list[tuple[float, int]] = []         # (time, fused moment)

    def occupancy_sample(now):
        tracer.count(TRACK_WBUF, "occupancy", now,
                     buffer_entries - state["credits"])

    def thread_tick(scheduled, thread):
        fired.append((engine.now, scheduled))
        index = next_line[thread]
        if index >= lines_per_thread:
            return
        next_line[thread] = index + 1
        line = thread * stride + index
        if state["credits"] > 0:
            state["credits"] -= 1
            if traced:
                occupancy_sample(engine.now)
            send(thread, line)
        else:
            state["stalls"] += 1
            if traced:
                tracer.instant(TRACK_WBUF, "credit-stall", engine.now,
                               thread=thread)
            waiting_for_credit.append((thread, line))
        if len(waiting_for_credit) < backlog_cap:
            schedule(sim.issue_gap_ns, thread_tick, next(moment), thread)
        else:
            stalled_threads.append(thread)

    def send(thread, line):
        now = engine.now
        sent_at[line] = next(moment)
        flits = sim.WRITE_REQUEST_FLITS
        sends = flits if injector is None \
            else injector.crc_transmissions(flits, "m2s", line)
        start = max(now, state["m2s"])
        state["m2s"] = start + sends * flit_ns
        if traced:
            tracer.complete(TRACK_PORT, "m2s.rwd", start, sends * flit_ns,
                            thread=thread)
        arrive = state["m2s"] + hop_ns
        schedule(arrive - now, buffer_arrival, line)

    def buffer_arrival(line):
        now = engine.now
        latency = sim.controller_ns
        if injector is not None:
            stall = injector.stall_ns("drain", line)
            if stall:
                if traced:
                    tracer.instant(TRACK_WBUF, "fault-stall", now)
                latency += stall
        row_index = line // lines_per_row
        bank = banks[row_index % nbanks]
        data_at, hit = bank.access(row_index // nbanks, now + latency)
        burst_start = max(data_at, state["bus"])
        state["bus"] = burst_start + timings.burst_ns
        if traced:
            tracer.complete(TRACK_DRAM, "drain-burst", burst_start,
                            timings.burst_ns, bank=bank.index, hit=hit)
        schedule(state["bus"] - now, drained, sent_at[line])

    def drained(scheduled):
        fired.append((engine.now, scheduled))
        state["completed"] += 1
        state["last_done"] = engine.now
        if waiting_for_credit:
            thread, line = waiting_for_credit.popleft()
            send(thread, line)
            if stalled_threads:
                schedule(sim.issue_gap_ns, thread_tick, next(moment),
                         stalled_threads.pop())
        else:
            state["credits"] += 1
            if traced:
                occupancy_sample(state["last_done"])

    for thread in range(threads):
        schedule(thread * 0.5, thread_tick, next(moment), thread)
    engine.run()
    completed = state["completed"]
    if completed != threads * lines_per_thread:
        raise SimulationError("reference write run did not drain")
    row_hits = sum(b.row_hits for b in banks)
    row_misses = sum(b.row_misses for b in banks)
    registry = sim.telemetry.registry
    registry.counter("cxl.e2e.write.completed").inc(completed)
    registry.counter("cxl.e2e.write.credit_stalls").inc(state["stalls"])
    registry.counter("cxl.e2e.write.row_hits").inc(row_hits)
    registry.counter("cxl.e2e.write.row_misses").inc(row_misses)
    return E2eResult(
        threads=threads, completed=completed,
        elapsed_ns=state["last_done"],
        row_hits=row_hits, row_misses=row_misses,
        faults_injected=injector.injected if injector else 0,
        faults_recovered=injector.recovered if injector else 0), \
        _swapped(fired)


def _swapped(fired: list[tuple[float, int]]) -> bool:
    """Whether two events due at one instant fired against the order of
    the moments at which the fused sim schedules them."""
    return any(time == next_time and scheduled > next_scheduled
               for (time, scheduled), (next_time, next_scheduled)
               in zip(fired, fired[1:]))


shapes = st.tuples(st.integers(min_value=1, max_value=32),   # threads
                   st.integers(min_value=1, max_value=300))  # lines
controller = st.floats(min_value=0.0, max_value=300.0)


def _telemetry(traced: bool) -> Telemetry:
    return Telemetry.on() if traced else Telemetry()


def _observed(result: E2eResult, telemetry: Telemetry):
    """What must match: the result, the model metrics and, when traced,
    the recorded events as a multiset."""
    events = sorted((event.key() for event in telemetry.tracer.events),
                    key=repr)
    return result, telemetry.registry.snapshot(), events


def _order_free(observed):
    """The part of an observation that no event order can move."""
    result, _, _ = observed
    return (result.completed, result.faults_injected,
            result.faults_recovered)


def _compare(reference, fused, swapped: bool) -> None:
    event("swapped events" if swapped else "same event order")
    if swapped:
        assert _order_free(reference) == _order_free(fused)
    else:
        assert reference == fused


@settings(max_examples=60, deadline=None)
@given(shapes, st.integers(min_value=1, max_value=24), controller,
       st.booleans(), fault_plans, st.booleans())
@example(shape=(19, 9), mlp=1, controller_ns=141.0, closed_page=False,
         plan=FaultPlan(timeout_rate=0.125, stall_ns=0.0, timeout_ns=250.0,
                        retry_backoff_ns=0.0, max_retries=1),
         traced=False)
def test_fused_read_matches_three_stage_reference(shape, mlp, controller_ns,
                                                  closed_page, plan,
                                                  traced):
    threads, lines = shape
    observed = []
    for run in (reference_read, CxlEndToEndSim.run):
        telemetry = _telemetry(traced)
        sim = CxlEndToEndSim(mlp_per_thread=mlp,
                             controller_ns=controller_ns,
                             closed_page=closed_page, fault_plan=plan,
                             telemetry=telemetry)
        result = run(sim, threads=threads, lines_per_thread=lines)
        if run is reference_read:
            result, swapped = result
        observed.append(_observed(result, telemetry))
    _compare(*observed, swapped)


@settings(max_examples=60, deadline=None)
@given(shapes, controller, st.integers(min_value=1, max_value=160),
       st.sampled_from([0.75, 3.0, 6.0, 9.5]), fault_plans,
       st.booleans())
def test_fused_write_matches_two_stage_reference(shape, controller_ns,
                                                 buffer_entries,
                                                 issue_gap_ns, plan,
                                                 traced):
    threads, lines = shape
    observed = []
    for run in (reference_write, CxlWriteEndToEndSim.run):
        telemetry = _telemetry(traced)
        sim = CxlWriteEndToEndSim(controller_ns=controller_ns,
                                  buffer_entries=buffer_entries,
                                  issue_gap_ns=issue_gap_ns,
                                  fault_plan=plan, telemetry=telemetry)
        result = run(sim, threads=threads, lines_per_thread=lines)
        if run is reference_write:
            result, swapped = result
        observed.append(_observed(result, telemetry))
    _compare(*observed, swapped)


@settings(max_examples=30, deadline=None)
@given(shapes, fault_plans)
def test_event_counts_follow_the_fold(shape, plan):
    """On the DES references a read attempt costs one event plus one
    per fault retry (a timeout re-sends once, a poisoned response
    re-reads through its ``complete`` and a re-send), and an nt-store
    line two, plus one closing tick per writer.  Either sim itself runs
    no event queue."""
    threads, lines = shape
    telemetry = Telemetry.on()
    with forced_des(), engine_events() as events:
        CxlEndToEndSim(fault_plan=plan, telemetry=telemetry).run(
            threads=threads, lines_per_thread=lines)
    faults = [event.name for event in telemetry.tracer.events]
    assert events == [threads * lines + faults.count("fault-timeout")
                      + 2 * faults.count("fault-poison")]
    with forced_des(), engine_events() as events:
        CxlWriteEndToEndSim(fault_plan=plan).run(
            threads=threads, lines_per_thread=lines)
    assert events == [2 * threads * lines + threads]
    for sim_class in (CxlEndToEndSim, CxlWriteEndToEndSim):
        with engine_events() as calls:
            sim_class(fault_plan=plan).run(threads=threads,
                                           lines_per_thread=lines)
        assert not calls
