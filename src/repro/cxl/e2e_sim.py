"""End-to-end CXL read simulation: host threads -> flits -> DRAM banks.

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
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from ..errors import SimulationError
from ..faults import FaultPlan, injector_for
from ..mem.banks import Bank, DdrTimings, ddr4_2666_timings
from ..sim.engine import Engine
from ..telemetry import NULL_TELEMETRY, Telemetry, interpolate_percentile
from ..units import SEC
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
        if mlp_per_thread <= 0:
            raise SimulationError("mlp must be positive")
        if controller_ns < 0:
            raise SimulationError("negative controller latency")
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
        if threads <= 0 or lines_per_thread <= 0:
            raise SimulationError(
                "threads and lines_per_thread must be positive")
        engine = Engine(telemetry=self.telemetry)
        schedule, schedule_at = engine.schedule, engine.schedule_at
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        latency_hist = self.telemetry.registry.histogram(
            "cxl.e2e.read.latency_ns")
        injector = injector_for(self.fault_plan, stream="e2e-read",
                                telemetry=self.telemetry)
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
        completed = 0
        last_done = 0.0
        next_line = [0] * threads       # per-thread progress
        latencies: list[float] = []
        activate_times: deque[float] = deque(maxlen=4)

        # One event per read attempt (``complete``), plus one per fault
        # retry: the device and S2M stages run inside ``send``, because
        # both see their requests in ``send``-call order (argued at
        # each stage).  Each stage's clock is the sum the engine forms
        # for an event of its own, ``now + (t - now)``, which is not
        # always ``t``.  Events due at exactly one instant fire in the
        # order they were scheduled, and ``complete`` and a timeout
        # retry are scheduled here, so such a tie between different
        # requests' events can resolve in another order than with a
        # stage event each (tests/cxl/test_e2e_fusion.py).
        # ``attempt`` numbers the send for one line (1 = first issue);
        # fault draws are keyed on (line, attempt), not on call order,
        # so retries re-roll while replays of the same decision never
        # do.
        def launch(thread: int, now: float) -> None:
            index = next_line[thread]
            if index >= lines_per_thread:
                return
            next_line[thread] = index + 1
            send(thread, thread * stride + index, now, 1)

        def send(thread: int, line: int, issued_at: float,
                 attempt: int) -> None:
            nonlocal m2s_free_at, dram_bus_free_at, s2m_free_at
            now = engine.now
            sends = REQUEST_FLITS if injector is None \
                else injector.crc_transmissions(REQUEST_FLITS,
                                                "m2s", line, attempt)
            start = max(now + pack_ns, m2s_free_at)
            m2s_free_at = start + sends * flit_ns
            if traced:
                tracer.complete(TRACK_PORT, "m2s.memrd", start,
                                sends * flit_ns, thread=thread)
            # Device stage.  Every send adds at least one flit_ns to
            # m2s_free_at, so arrivals strictly increase in send-call
            # order: the device sees requests in exactly this order,
            # and only this stage touches the banks and the DRAM bus.
            now = now + (m2s_free_at + hop_ns - now)
            if injector is not None \
                    and attempt <= injector.plan.max_retries \
                    and injector.timeout(line, attempt):
                # Transient controller timeout: the request is dropped
                # on the floor; the host waits it out and re-issues.
                injector.recovery()
                injector.retried()
                if traced:
                    tracer.instant(TRACK_WBUF, "fault-timeout",
                                   now, thread=thread)
                schedule_at(now + injector.plan.timeout_ns,
                            send, thread, line, issued_at, attempt + 1)
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
                    issue_at = max(issue_at, activate_times[0] + tfaw_ns)
                activate_times.append(issue_at)
            data_at, hit = bank.access(row, issue_at)
            # The device data bus serializes bursts.
            burst_start = max(data_at, dram_bus_free_at)
            dram_bus_free_at = burst_start + burst_ns
            if traced:
                tracer.complete(TRACK_DRAM, "burst", burst_start,
                                burst_ns, bank=bank_index, hit=hit)
            # S2M stage.  Each burst adds burst_ns to dram_bus_free_at
            # (a timeout returns before touching the bus), so responses
            # reach the wire in device order, which is send-call order.
            now = now + (dram_bus_free_at - now)
            sends = RESPONSE_FLITS if injector is None \
                else injector.crc_transmissions(RESPONSE_FLITS,
                                                "s2m", line, attempt)
            start = max(now, s2m_free_at)
            s2m_free_at = start + sends * flit_ns
            if traced:
                tracer.complete(TRACK_PORT, "s2m.drs", start,
                                sends * flit_ns, thread=thread)
            done_at = s2m_free_at + hop_ns + pack_ns
            schedule_at(now + (done_at - now),
                        complete, thread, line, issued_at, attempt)

        def complete(thread: int, line: int, issued_at: float,
                     attempt: int) -> None:
            nonlocal completed, last_done
            now = engine.now
            if injector is not None \
                    and attempt <= injector.plan.max_retries \
                    and injector.poisoned(line, attempt):
                # Poisoned DRS: data arrived but is unusable; discard
                # and re-read after the backoff.  The MLP slot stays
                # occupied — poison steals host parallelism.
                injector.recovery()
                injector.retried()
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
        if buffer_entries <= 0:
            raise SimulationError("buffer must have entries")
        if issue_gap_ns <= 0:
            raise SimulationError("issue gap must be positive")
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
        if threads <= 0 or lines_per_thread <= 0:
            raise SimulationError(
                "threads and lines_per_thread must be positive")
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

    def sweep(self, thread_counts: list[int], *,
              lines_per_thread: int = 1200) -> dict[int, E2eResult]:
        """nt-store thread sweep."""
        return {threads: self.run(threads=threads,
                                  lines_per_thread=lines_per_thread)
                for threads in thread_counts}

