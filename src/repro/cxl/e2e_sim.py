"""End-to-end CXL simulations: host threads -> flits -> DRAM banks.

The analytic model produces Fig 3b from calibrated ceilings and derates.
This simulator *derives* the same curve shape from mechanism alone:

* each host thread keeps ``mlp`` sequential reads of its own region in
  flight (fill-buffer semantics);
* requests serialize onto the M2S wire as flits, cross the hop, and
  queue at the device;
* the device is a :class:`~repro.mem.banks.Bank` array behind a shared
  DRAM data bus — *no tuned efficiency constants* — so multi-thread row
  thrash emerges from bank state, exactly §4.3.1's "requests with fewer
  patterns" observation;
* responses serialize back as 2-flit DRS messages.

Sweeping threads reproduces the three regimes of Fig 3b: a latency-bound
linear slope, saturation near the DDR4 limit around 8 threads, and
degradation once thread count exceeds the device's bank parallelism.

Degraded mode
-------------
An active :class:`~repro.faults.FaultPlan` perturbs the same mechanism
instead of crashing it: CRC-failed flits retransmit on the wire,
transiently timed-out or poisoned reads are re-issued by the host after
a backoff (the MLP slot stays occupied — retries steal host
parallelism, which is what inflates the tail), device stalls stretch
the controller stage, and a degraded link stretches every flit.  Every
injected fault is recovered and counted; ``completed`` always reaches
the expected total.  The ``degraded-cxl`` experiment sweeps fault
severity over this model.

Neither sim runs on the event queue: each serves its events from a
FIFO of the events due in send order and a heap of the rest, in the
order an event queue would fire them, so every run, traced and faulted
ones included, is one pure-software pipeline.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace

from ..errors import SimulationError
from ..faults import FaultPlan, injector_for
from ..mem.banks import Bank, DdrTimings, ddr4_2666_timings
from ..telemetry import NULL_TELEMETRY, Telemetry, interpolate_percentile
from ..units import SEC, is_count
from .port import CxlPort

# Component track names (one Perfetto row each; docs/TELEMETRY.md).
TRACK_CORE = "core"
TRACK_PORT = "cxl.port"
TRACK_WBUF = "cxl.device.wbuf"
TRACK_DRAM = "dram.channel"

REQUEST_FLITS = 1      # MemRd header fits one flit (unpacked worst case)
RESPONSE_FLITS = 2     # DRS: header + 64 B = 5 slots = 2 flits


@dataclass(frozen=True)
class E2eResult:
    """One simulated configuration's outcome.

    ``p50_ns``/``p99_ns`` summarize per-read completion latency (issue
    to data return, retries included); zero when the run records no
    per-request latencies (the write sim).  ``faults_injected`` /
    ``faults_recovered`` count fault-plan events — equal in every
    completed run, because recovery is what the protocol layer
    guarantees.
    """

    threads: int
    completed: int
    elapsed_ns: float
    row_hits: int
    row_misses: int
    p50_ns: float = 0.0
    p99_ns: float = 0.0
    faults_injected: int = 0
    faults_recovered: int = 0

    @property
    def app_bandwidth(self) -> float:
        if self.elapsed_ns <= 0:
            raise SimulationError("empty simulation window")
        return self.completed * 64 / (self.elapsed_ns / SEC)

    @property
    def gb_per_s(self) -> float:
        return self.app_bandwidth / 1e9

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0


def _require_counts(**values: object) -> None:
    """Raise :class:`SimulationError` naming the first value that is
    not a positive integer."""
    for name, value in values.items():
        if not is_count(value):
            raise SimulationError(
                f"{name} must be a positive integer: {value!r}")


def _require_latency(**values: float) -> None:
    """Raise :class:`SimulationError` naming the first value that is
    negative, NaN or infinite."""
    for name, value in values.items():
        if not 0.0 <= value < math.inf:
            raise SimulationError(
                f"{name} must be non-negative and finite: {value!r}")


class CxlEndToEndSim:
    """Mechanism-only simulation of multi-threaded CXL streaming reads."""

    def __init__(self, *, port: CxlPort | None = None,
                 timings: DdrTimings | None = None,
                 controller_ns: float = 140.0,
                 mlp_per_thread: int = 15,
                 region_lines: int = 1 << 18,
                 closed_page: bool = False,
                 fault_plan: FaultPlan | None = None,
                 telemetry: Telemetry | None = None) -> None:
        _require_counts(mlp_per_thread=mlp_per_thread,
                        region_lines=region_lines)
        _require_latency(controller_ns=controller_ns)
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.port = port if port is not None else CxlPort()
        self.timings = timings if timings is not None \
            else ddr4_2666_timings()
        self.controller_ns = controller_ns
        self.mlp_per_thread = mlp_per_thread
        self.region_lines = region_lines
        # closed_page models a simple controller that auto-precharges
        # after every access — the policy simple FPGA memory controllers
        # fall back to under mixed streams.  The measured Agilex
        # high-thread bandwidth (16.8 GB/s) lies between this sim's
        # open-page (~21.2) and closed-page (~12-14) regimes.
        self.closed_page = closed_page
        self.fault_plan = fault_plan

    def run(self, *, threads: int, lines_per_thread: int = 1500
            ) -> E2eResult:
        """Stream reads from ``threads`` pinned threads to completion."""
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
        next_line = [0] * threads       # per-thread progress
        latencies: list[float] = []
        activate_times: deque[float] = deque(maxlen=4)

        # Two event kinds, served without an event queue.  Every send
        # adds at least one response's flits to s2m_free_at, so
        # ``complete`` events are due in send order: a FIFO.  Re-sends
        # (timeout retries and poison re-reads) go on a heap.  Entries
        # are (time, seq, thread, line, issued_at, attempt); ``seq``
        # numbers events in the order they are scheduled, one counter
        # for both kinds, and the smaller (time, seq) head fires next,
        # so events fire in scheduling order at exact ties, as on an
        # event queue.
        completes: deque[tuple[float, int, int, int, float, int]] = deque()
        resends: list[tuple[float, int, int, int, float, int]] = []
        push_complete, pop_complete = completes.append, completes.popleft
        seq = 0

        # ``carry`` runs one read attempt through every stage: the M2S
        # wire, the device (controller, banks, DRAM bus) and the S2M
        # wire, each on the clock its own event used to carry,
        # ``now + (t - now)``, which is not always ``t``, and queues
        # the event that follows it.  Attempts are carried in send
        # order, and every stage sees its requests in that order
        # (argued at each stage).  ``attempt`` numbers the send for one
        # line (1 = first issue); fault draws are keyed on (line,
        # attempt), not on call order, so retries re-roll while replays
        # of the same decision never do.
        def carry(thread: int, line: int, now: float, issued_at: float,
                  attempt: int) -> None:
            """Send an attempt at ``now``; queue its ``complete`` or,
            when a fault timeout drops it at the device, its re-send."""
            nonlocal m2s_free_at, dram_bus_free_at, s2m_free_at, seq
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
                heappush(resends, (now + injector.plan.timeout_ns, seq,
                                   thread, line, issued_at, attempt + 1))
                seq += 1
                return
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
            push_complete((now + (done_at - now), seq, thread, line,
                           issued_at, attempt))
            seq += 1

        record = latency_hist.record
        for thread in range(threads):
            for index in range(min(self.mlp_per_thread, lines_per_thread)):
                carry(thread, thread * stride + index, 0.0, 0.0, 1)
                next_line[thread] = index + 1
        # ``clock`` is the time of the last event fired.  An event due
        # before it would have been queued out of send order or into
        # the past, which an event queue does not fire in this order.
        clock = 0.0
        while completes or resends:
            if resends and (not completes or resends[0] < completes[0]):
                # A re-send: the host re-issues a dropped or poisoned
                # read; its MLP slot stayed occupied meanwhile.
                now, _, thread, line, issued_at, attempt = \
                    heappop(resends)
                if now < clock:
                    raise SimulationError(
                        f"re-send of line {line} is due at {now} ns, "
                        f"before {clock} ns: events are out of order")
                clock = now
                carry(thread, line, now, issued_at, attempt)
                continue
            now, _, thread, line, issued_at, attempt = pop_complete()
            if now < clock:
                raise SimulationError(
                    f"read of line {line} completes at {now} ns, "
                    f"before {clock} ns: completions are out of send "
                    "order")
            clock = now
            if injector is not None \
                    and attempt <= injector.plan.max_retries \
                    and injector.poisoned(line, attempt):
                # Poisoned DRS: data arrived but is unusable; discard
                # and re-read after the backoff.  The MLP slot stays
                # occupied — poison steals host parallelism.
                injector.recovery()
                if traced:
                    tracer.instant(TRACK_PORT, "fault-poison", now,
                                   thread=thread)
                heappush(resends, (now + injector.plan.retry_backoff_ns,
                                   seq, thread, line, issued_at,
                                   attempt + 1))
                seq += 1
                continue
            latency = now - issued_at
            latencies.append(latency)
            record(latency)
            if traced:
                tracer.complete(TRACK_CORE, "read", issued_at, latency,
                                thread=thread)
            index = next_line[thread]     # the freed fill buffer refills
            if index < lines_per_thread:
                next_line[thread] = index + 1
                carry(thread, thread * stride + index, now, now, 1)
        completed = len(latencies)
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
            elapsed_ns=clock,
            row_hits=row_hits, row_misses=row_misses,
            p50_ns=interpolate_percentile(latencies, 50.0),
            p99_ns=interpolate_percentile(latencies, 99.0),
            faults_injected=injector.injected if injector else 0,
            faults_recovered=injector.recovered if injector else 0)

    def sweep(self, thread_counts: list[int], *,
              lines_per_thread: int = 1500) -> dict[int, E2eResult]:
        """Fig-3b-style thread sweep."""
        return {threads: self.run(threads=threads,
                                  lines_per_thread=lines_per_thread)
                for threads in thread_counts}


class CxlWriteEndToEndSim:
    """Mechanism-only nt-store simulation with a finite device buffer.

    §4.3.2's explanation of the nt-store collapse, made executable:
    posted writes leave the core freely (write-combining), so
    acceptance is gated only by *device buffer credits*.  The buffer
    drains through the DDR4 banks **in arrival order** — and arrival
    order is what thread count ruins.  One or two writers keep their
    sequential runs intact (row hits, drain ≈ pin rate); more writers
    interleave at line granularity inside the buffer, the drain stream
    loses row locality, drain slows, the buffer backs up, and
    throughput collapses.  No tuned derate involved.

    A run has two event kinds, a writer's ``thread_tick`` and a line's
    ``drained``; :meth:`run` serves them from a heap and a FIFO in the
    order an event queue fires them.
    """

    WRITE_REQUEST_FLITS = 2      # M2S RwD: header + 64 B = 5 slots

    def __init__(self, *, port: CxlPort | None = None,
                 timings: DdrTimings | None = None,
                 controller_ns: float = 140.0,
                 buffer_entries: int = 128,
                 issue_gap_ns: float = 6.0,
                 region_lines: int = 1 << 18,
                 fault_plan: FaultPlan | None = None,
                 telemetry: Telemetry | None = None) -> None:
        _require_counts(buffer_entries=buffer_entries,
                        region_lines=region_lines)
        _require_latency(controller_ns=controller_ns)
        if not 0.0 < issue_gap_ns < math.inf:
            raise SimulationError(f"issue_gap_ns must be positive and "
                                  f"finite: {issue_gap_ns!r}")
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.port = port if port is not None else CxlPort()
        self.timings = timings if timings is not None \
            else ddr4_2666_timings()
        self.controller_ns = controller_ns
        self.buffer_entries = buffer_entries
        self.issue_gap_ns = issue_gap_ns
        self.region_lines = region_lines
        self.fault_plan = fault_plan

    def run(self, *, threads: int, lines_per_thread: int = 1200
            ) -> E2eResult:
        _require_counts(threads=threads, lines_per_thread=lines_per_thread)
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
        # Two event kinds, served without an event queue.  At most one
        # ``thread_tick`` per writer is pending: a heap of (time, seq,
        # thread).  Drains are due in send order: a FIFO of (time,
        # seq).  ``seq`` numbers events in the order they are
        # scheduled, one counter for both kinds, and the smaller
        # (time, seq) head fires next, so events fire in scheduling
        # order at exact ties, as on an event queue.
        ticks = [(0.0 + thread * 0.5, thread, thread)
                 for thread in range(threads)]
        seq = threads
        drains: deque[tuple[float, int]] = deque()

        def send(thread: int, line: int, now: float) -> float:
            """Carry a line sent at ``now`` over the M2S wire into the
            buffer and through its DRAM burst; returns when it drains."""
            nonlocal m2s_free_at, dram_bus_free_at
            sends = request_flits if injector is None \
                else injector.crc_transmissions(request_flits, "m2s", line)
            start = now if now >= m2s_free_at else m2s_free_at
            m2s_free_at = start + sends * flit_ns
            if traced:
                tracer.complete(TRACK_PORT, "m2s.rwd", start,
                                sends * flit_ns, thread=thread)
            # Buffer arrival.  Every send adds at least one flit_ns to
            # m2s_free_at, so lines reach the buffer in send order and
            # drain in that order; only this stage touches the banks
            # and the DRAM bus.  The controller is a pipeline stage
            # (latency, not occupancy); banks and the shared data bus
            # serialize.  Each stage keeps the clock its own event used
            # to carry, ``now + (t - now)``, which is not always ``t``.
            arrive = now + (m2s_free_at + hop_ns - now)
            latency = controller_ns
            if injector is not None:
                stall = injector.stall_ns("drain", line)
                if stall:
                    if traced:
                        tracer.instant(TRACK_WBUF, "fault-stall", arrive)
                    latency += stall
            row_index = line // lines_per_row
            bank = banks[row_index % nbanks]
            data_at, hit = bank.access(row_index // nbanks,
                                       arrive + latency)
            burst_start = data_at if data_at >= dram_bus_free_at \
                else dram_bus_free_at
            dram_bus_free_at = burst_start + burst_ns
            if traced:
                tracer.complete(TRACK_DRAM, "drain-burst", burst_start,
                                burst_ns, bank=bank.index, hit=hit)
            # Each burst adds burst_ns to dram_bus_free_at, so drains
            # are due in send order, never before the send itself.
            drain_at = arrive + (dram_bus_free_at - arrive)
            floor = drains[-1][0] if drains else now
            if drain_at < floor:
                raise SimulationError(
                    f"drain of line {line} is due at {drain_at} ns, "
                    f"before {floor} ns: drains are out of send order")
            return drain_at

        push_drain, pop_drain = drains.append, drains.popleft
        while ticks or drains:
            if drains and (not ticks or drains[0] < ticks[0]):
                # ``drained``: the line left the buffer.
                now = pop_drain()[0]
                completed += 1
                last_done = now
                if waiting_for_credit:
                    thread, line = waiting_for_credit.popleft()
                    push_drain((send(thread, line, now), seq))
                    seq += 1
                    if stalled_threads:
                        heappush(ticks, (now + issue_gap_ns, seq,
                                         stalled_threads.pop()))
                        seq += 1
                else:
                    credits += 1
                    if traced:
                        tracer.count(TRACK_WBUF, "occupancy", now,
                                     buffer_entries - credits)
                continue
            # ``thread_tick``: a writer produces one line per issue
            # gap, credits allowing.
            now, _, thread = ticks[0]
            index = next_line[thread]
            if index >= lines_per_thread:
                heappop(ticks)
                continue
            next_line[thread] = index + 1
            line = thread * stride + index
            if credits > 0:
                credits -= 1
                if traced:
                    tracer.count(TRACK_WBUF, "occupancy", now,
                                 buffer_entries - credits)
                push_drain((send(thread, line, now), seq))
                seq += 1
            else:
                stalls += 1
                if traced:
                    tracer.instant(TRACK_WBUF, "credit-stall", now,
                                   thread=thread)
                waiting_for_credit.append((thread, line))
            # Pace the next store; a full WC pipeline stalls naturally
            # because the credit queue backs up.
            if len(waiting_for_credit) < backlog_cap:
                heapreplace(ticks, (now + issue_gap_ns, seq, thread))
                seq += 1
            else:
                heappop(ticks)
                stalled_threads.append(thread)
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

    def sweep(self, thread_counts: list[int], *,
              lines_per_thread: int = 1200) -> dict[int, E2eResult]:
        """nt-store thread sweep."""
        return {threads: self.run(threads=threads,
                                  lines_per_thread=lines_per_thread)
                for threads in thread_counts}

