"""The single-threaded KV server under open-loop load.

Redis processes queries on one event-loop thread, so the server is a
capacity-1 station.  YCSB clients throttle to a target QPS (§5.1:
"conducted multiple workloads while throttling query per second in the
YCSB clients"), modeled as a Poisson arrival process; the recorded
sojourn time (queue wait + service) is what the p99 curves plot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ...errors import WorkloadError
from ...sim import LatencyRecorder
from ...sim.rng import substream
from ...units import is_count
from .store import KvStore


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


class KvServer:
    """Drives a :class:`KvStore` with Poisson arrivals at one FIFO slot.

    Redis serves every query on its single event-loop thread, so the
    server is a capacity-1 first-come-first-served station.
    """

    def __init__(self, store: KvStore, *, seed: int = 1) -> None:
        self.store = store
        self.seed = seed

    def run(self, target_qps: float, *, requests: int = 20_000) -> RunResult:
        """Simulate ``requests`` queries at ``target_qps`` offered load."""
        if not 0 < target_qps < math.inf:
            raise WorkloadError(
                f"target_qps must be positive and finite: {target_qps}")
        if not is_count(requests):
            raise WorkloadError(
                f"requests must be a positive integer: {requests!r}")
        return self._run_fast(target_qps, requests)

    def _run_fast(self, target_qps: float, requests: int) -> RunResult:
        """The station without an event queue.

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
        in request order.  The result is byte-identical to an event-driven
        run of the same station (``tests/apps/test_kv_fastpath.py`` keeps
        that reference; ``tests/apps/test_kv_pinned.py`` pins both).
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
        return RunResult(target_qps=target_qps,
                         achieved_qps=requests / (finish / 1e9),
                         p50_ns=sojourn.p50(),
                         p99_ns=sojourn.p99(),
                         mean_service_ns=service_total / requests,
                         requests=requests)
