"""The single-threaded KV server under open-loop load (DES).

Redis processes queries on one event-loop thread, so the server is a
capacity-1 station.  YCSB clients throttle to a target QPS (§5.1:
"conducted multiple workloads while throttling query per second in the
YCSB clients"), modeled as a Poisson arrival process; the recorded
sojourn time (queue wait + service) is what the p99 curves plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...errors import WorkloadError
from ...sim import Engine, LatencyRecorder, Server
from ...sim.rng import substream
from ...telemetry import NULL_TELEMETRY, Telemetry
from ...units import is_count
from .store import KvStore

KVSTORE_TRACK = "apps.kvstore"


@dataclass(frozen=True)
class RunResult:
    """Outcome of one (workload, placement, QPS) run."""

    target_qps: float
    achieved_qps: float
    p50_ns: float
    p99_ns: float
    mean_service_ns: float
    requests: int

    @property
    def saturated(self) -> bool:
        """True when the server could not keep up with the offered load."""
        return self.achieved_qps < 0.95 * self.target_qps

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1000.0


def _waterfall_columns(store: KvStore, waits: list, cpu: np.ndarray,
                       misses: np.ndarray, miss_ns: np.ndarray,
                       keys: np.ndarray) -> list[tuple]:
    """Span columns of the recorded requests, in waterfall order.

    The memory part splits by the kind of node backing the record's
    lines.  ``mem.cxl`` is the residual, so the pair closes exactly on
    ``misses * miss_ns``; it is an exact zero for an all-DRAM record,
    and an all-CXL record's ``mem.dram`` is ``misses * 0.0``.
    """
    mem_total = misses * miss_ns
    split = np.array([store.miss_node_split(key) for key in keys.tolist()]
                     ).reshape(-1, 2)
    dram = np.where(split[:, 1] == 0.0, mem_total, misses * split[:, 0])
    return [("client.wait", np.array(waits)), ("kv.cpu", cpu),
            ("mem.dram", dram), ("mem.cxl", mem_total - dram)]


class KvServer:
    """Drives a :class:`KvStore` with Poisson arrivals on the DES engine.

    ``workers=1`` is Redis' single-threaded event loop; ``workers>1``
    models a memcached-style threaded server (§6.1 names both as
    µs-level, latency-bound stores).  More workers raise the saturation
    QPS linearly but do nothing for the per-query CXL latency penalty —
    which is the §6.1 point: latency-bound is about *service time*, not
    concurrency.
    """

    def __init__(self, store: KvStore, *, seed: int = 1,
                 workers: int = 1,
                 telemetry: Telemetry | None = None) -> None:
        if workers <= 0:
            raise WorkloadError(f"workers must be positive: {workers}")
        self.store = store
        self.seed = seed
        self.workers = workers
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    def run(self, target_qps: float, *, requests: int = 20_000) -> RunResult:
        """Simulate ``requests`` queries at ``target_qps`` offered load."""
        if not 0 < target_qps < math.inf:
            raise WorkloadError(
                f"target_qps must be positive and finite: {target_qps}")
        if not is_count(requests):
            raise WorkloadError(
                f"requests must be a positive integer: {requests!r}")
        if (self.workers == 1 and not self.telemetry.enabled
                and not self.telemetry.spans.enabled):
            # A capacity-1 FIFO station needs no event queue: the
            # Lindley recursion replays the DES float-for-float.
            return self._run_fast(target_qps, requests)
        return self._run_des(target_qps, requests)

    def _run_des(self, target_qps: float, requests: int) -> RunResult:
        """The event-driven path: every request is an arrival event, a
        :class:`Server` grant and a finish event on a fresh engine.

        Runs whenever workers contend, or a tracer or span recorder
        needs real event interleaving; it is also the reference the
        fast path is tested against.  The requests are drawn up front
        with :meth:`KvStore.sample_requests`: the FIFO :class:`Server`
        grants in arrival order, which is the order the trace is drawn
        in, so request ``index`` reads entry ``index``.  Only the
        request index, arrival time and grant time ride through
        :meth:`Server.acquire` and :meth:`Engine.schedule` as callback
        arguments, so no closure is allocated per request.  With spans
        on, a finish only notes the request and its queue wait; the
        waterfalls are built from the trace arrays after the run and
        recorded in one :meth:`SpanRecorder.record_batch`.
        """
        engine = Engine(telemetry=self.telemetry)
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        spans = self.telemetry.spans
        spanned = spans.enabled
        store = self.store
        name = ("redis-event-loop" if self.workers == 1
                else f"memcached-{self.workers}w")
        server = Server(self.workers, name=name)
        arrivals = substream(f"arrivals-{self.seed}", self.seed)
        sojourn = LatencyRecorder("sojourn")
        service_total = [0.0]
        completed = [0]
        last_completion = [0.0]
        mean_gap_ns = 1e9 / target_qps
        # Span rows in completion order: the request and its queue wait.
        span_index: list[int] = []
        span_wait: list[float] = []

        def start(index: int, arrival_time: float) -> None:
            service = services[index]
            service_total[0] += service
            engine.schedule(service, finish, index, arrival_time,
                            engine.now)

        def finish(index: int, arrival_time: float, grant: float) -> None:
            server.release()
            now = engine.now
            sojourn.record(now - arrival_time)
            completed[0] += 1
            last_completion[0] = now
            if traced:
                tracer.complete(KVSTORE_TRACK, ops[index].value,
                                arrival_time, now - arrival_time,
                                request=index)
            if spanned:
                span_index.append(index)
                span_wait.append(grant - arrival_time)

        # Pre-draw all arrival times (exponential gaps), then the trace.
        gaps = arrivals.exponential(mean_gap_ns, size=requests)
        ops, keys, cpu, misses, miss_ns = store.sample_requests(
            requests, arrivals)
        services = (cpu + misses * miss_ns).tolist()
        arrival_time = 0.0
        for index in range(requests):
            arrival_time += float(gaps[index])
            engine.schedule_at(arrival_time, server.acquire, start, index,
                               arrival_time)
        engine.run()
        if spanned:
            rows = np.array(span_index, dtype=np.int64)
            # The running sum of the gaps: the loop's arrival times.
            spans.record_batch(
                rows, np.add.accumulate(gaps)[rows],
                [ops[row].value for row in span_index],
                _waterfall_columns(store, span_wait, cpu[rows], misses[rows],
                                   miss_ns[rows], keys[rows]))

        elapsed = last_completion[0]
        if elapsed <= 0:
            raise WorkloadError("no requests completed")
        registry = self.telemetry.registry
        registry.counter("apps.kvstore.requests").inc(completed[0])
        registry.gauge("apps.kvstore.p99_sojourn_ns").set(sojourn.p99())
        registry.gauge("apps.kvstore.achieved_qps").set(
            completed[0] / (elapsed / 1e9))
        return RunResult(target_qps=target_qps,
                         achieved_qps=completed[0] / (elapsed / 1e9),
                         p50_ns=sojourn.p50(),
                         p99_ns=sojourn.p99(),
                         mean_service_ns=service_total[0] / completed[0],
                         requests=completed[0])

    def _run_fast(self, target_qps: float, requests: int) -> RunResult:
        """The ``workers == 1`` analytic fast path (no event queue).

        Two phases.  First the draws: the arrival gaps, then the whole
        request trace from :meth:`KvStore.sample_requests`, folded once
        into service times ``cpu + misses * miss_ns``.  Then the
        Lindley recursion over plain floats: with a single FIFO slot
        the DES collapses to ``start_i = max(arrival_i, finish_{i-1})``,
        ``finish_i = start_i + service_i``.  Arrival events carry the
        lowest sequence numbers, so the DES grants — and draws — in
        arrival-index order too, and the adds and compares here are the
        ones its event loop performs; the sojourns are recorded in one
        :meth:`LatencyRecorder.extend` and ``service_total`` is summed
        in request order.  The result is byte-identical to
        :meth:`_run_des` (``tests/apps/test_kv_fastpath.py`` and
        ``tests/apps/test_kv_pinned.py`` pin it).  Tracing runs keep
        the DES path so per-request trace events and engine trace spans
        still appear.
        """
        store = self.store
        arrivals = substream(f"arrivals-{self.seed}", self.seed)
        gaps = arrivals.exponential(1e9 / target_qps, size=requests)
        _, _, cpu, misses, miss_ns = store.sample_requests(requests,
                                                            arrivals)
        services = (cpu + misses * miss_ns).tolist()

        sojourns = []
        record = sojourns.append
        arrival = 0.0
        finish = 0.0
        service_total = 0.0
        for gap, service in zip(gaps.tolist(), services):
            arrival += gap
            service_total += service
            start = arrival if arrival >= finish else finish
            finish = start + service
            record(finish - arrival)
        sojourn = LatencyRecorder("sojourn")
        sojourn.extend(sojourns)

        if finish <= 0:
            raise WorkloadError("no requests completed")
        registry = self.telemetry.registry
        # Registry parity with the DES path: the engine's end-of-run
        # gauges (one arrival event + one finish event per request, the
        # clock left at the last completion) plus the app-level stats.
        registry.gauge("sim.engine.events_processed").set(2 * requests)
        registry.gauge("sim.engine.now_ns").set(finish)
        registry.counter("apps.kvstore.requests").inc(requests)
        registry.gauge("apps.kvstore.p99_sojourn_ns").set(sojourn.p99())
        registry.gauge("apps.kvstore.achieved_qps").set(
            requests / (finish / 1e9))
        return RunResult(target_qps=target_qps,
                         achieved_qps=requests / (finish / 1e9),
                         p50_ns=sojourn.p50(),
                         p99_ns=sojourn.p99(),
                         mean_service_ns=service_total / requests,
                         requests=requests)
