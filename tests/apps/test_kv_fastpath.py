"""KvServer's Lindley path must replay the event-driven station exactly.

A capacity-1 FIFO station collapses to the Lindley recursion (no event
queue), which is all :class:`KvServer` runs.  :func:`run_des` is the
engine reference it is checked against: every request an arrival
event, a :class:`Server` grant and a finish event.  Every RunResult
field must be *exactly* equal between the two, because experiment
payloads are cached content-addressed and compared byte-for-byte.
"""

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, RedisYcsbStudy, RunResult
from repro.errors import WorkloadError
from repro.sim import Engine, LatencyRecorder, Server
from repro.sim.rng import substream
from repro.telemetry import SpanRecorder
from repro.telemetry.spans import spans_digest
from repro.workloads import WORKLOADS
from tests.apps.test_kvstore import miss_node_split
from tests.sim.engine_events import engine_events

REQUESTS = 2_000
QPS = 50_000.0


def waterfall_columns(store, waits: list, cpu: np.ndarray,
                      misses: np.ndarray, miss_ns: np.ndarray,
                      keys: np.ndarray) -> list[tuple]:
    """Span columns of the recorded requests, in waterfall order.

    The memory part splits by the kind of node backing the record's
    lines.  ``mem.cxl`` is the residual, so the pair closes exactly on
    ``misses * miss_ns``; it is an exact zero for an all-DRAM record,
    and an all-CXL record's ``mem.dram`` is ``misses * 0.0``.
    """
    mem_total = misses * miss_ns
    split = np.array([miss_node_split(store, key) for key in keys.tolist()]
                     ).reshape(-1, 2)
    dram = np.where(split[:, 1] == 0.0, mem_total, misses * split[:, 0])
    return [("client.wait", np.array(waits)), ("kv.cpu", cpu),
            ("mem.dram", dram), ("mem.cxl", mem_total - dram)]


def run_des(store, target_qps: float, requests: int, *, seed: int = 1,
            workers: int = 1, spans: SpanRecorder | None = None
            ) -> RunResult:
    """``KvServer(store, seed=seed).run(target_qps, requests=requests)``
    on the DES engine, with ``workers`` FIFO slots.

    The requests are drawn up front with :meth:`KvStore.sample_requests`
    on the arrival stream, as the Lindley path draws them: the FIFO
    :class:`Server` grants in arrival order, so request ``index`` reads
    trace entry ``index``.  With spans on, a finish notes the request
    and its queue wait; the waterfalls are built from the trace arrays
    after the run and recorded in one :meth:`SpanRecorder.record_batch`.
    """
    engine = Engine()
    server = Server(workers)
    arrivals = substream(f"arrivals-{seed}", seed)
    sojourn = LatencyRecorder("sojourn")
    service_total = [0.0]
    completed = [0]
    last_completion = [0.0]
    # Span rows in completion order: the request and its queue wait.
    span_index: list[int] = []
    span_wait: list[float] = []

    def start(index: int, arrival_time: float) -> None:
        service = services[index]
        service_total[0] += service
        engine.schedule(service, finish, index, arrival_time, engine.now)

    def finish(index: int, arrival_time: float, grant: float) -> None:
        server.release()
        now = engine.now
        sojourn.record(now - arrival_time)
        completed[0] += 1
        last_completion[0] = now
        if spans is not None:
            span_index.append(index)
            span_wait.append(grant - arrival_time)

    gaps = arrivals.exponential(1e9 / target_qps, size=requests)
    ops, keys, cpu, misses, miss_ns = store.sample_requests(requests,
                                                             arrivals)
    services = (cpu + misses * miss_ns).tolist()
    arrival_time = 0.0
    for index in range(requests):
        arrival_time += float(gaps[index])
        engine.schedule_at(arrival_time, server.acquire, start, index,
                           arrival_time)
    engine.run()
    if spans is not None:
        rows = np.array(span_index, dtype=np.int64)
        # The running sum of the gaps: the loop's arrival times.
        spans.record_batch(
            rows, np.add.accumulate(gaps)[rows],
            [ops[row].value for row in span_index],
            waterfall_columns(store, span_wait, cpu[rows], misses[rows],
                              miss_ns[rows], keys[rows]))

    elapsed = last_completion[0]
    if elapsed <= 0:
        raise WorkloadError("no requests completed")
    return RunResult(target_qps=target_qps,
                     achieved_qps=completed[0] / (elapsed / 1e9),
                     p50_ns=sojourn.p50(),
                     p99_ns=sojourn.p99(),
                     mean_service_ns=service_total[0] / completed[0],
                     requests=completed[0])


@pytest.fixture(scope="module")
def study():
    return RedisYcsbStudy(build_system(combined_testbed()),
                          num_keys=10_000)


def _run(study, *, fastpath: bool, workload="A", fraction=0.5,
         spans=None, workers=1, requests=REQUESTS):
    """``fastpath=True`` runs :class:`KvServer`, ``False`` the DES."""
    store = study.build_store(WORKLOADS[workload], fraction)
    try:
        if fastpath:
            return KvServer(store, seed=study.seed).run(QPS,
                                                        requests=requests)
        return run_des(store, QPS, requests, seed=study.seed,
                       workers=workers, spans=spans)
    finally:
        store.free()


class TestEquivalence:
    @pytest.mark.parametrize("workload", ["A", "B", "D"])
    @pytest.mark.parametrize("fraction", [0.0, 0.5, 1.0])
    def test_fastpath_equals_des_exactly(self, study, workload, fraction):
        fast = _run(study, fastpath=True, workload=workload,
                    fraction=fraction)
        des = _run(study, fastpath=False, workload=workload,
                   fraction=fraction)
        assert fast == des                 # every field, exact floats


def _explode(self, target_qps, requests):
    raise AssertionError("fast path taken")


class TestGating:
    def test_single_worker_takes_the_fast_path(self, study,
                                               monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        with pytest.raises(AssertionError, match="fast path"):
            _run(study, fastpath=True)

    def test_run_des_processes_two_events_per_request(self, study):
        with engine_events() as events:
            _run(study, fastpath=False, requests=100)
        # One arrival event plus one finish event per request.
        assert events == [200]


class TestSpanGating:
    """Span attribution of the KV station, on the DES reference."""

    def test_spanned_run_result_matches_plain_des(self, study):
        """Recording spans must not perturb a single RunResult float."""
        spanned = _run(study, fastpath=False, spans=SpanRecorder())
        plain = _run(study, fastpath=True)
        assert spanned == plain

    def test_service_components_close_on_service_total(self, study):
        """kv.cpu + mem.* segments sum to the mean-service total —
        client.wait is the only segment outside the service time."""
        spans = SpanRecorder()
        result = _run(study, fastpath=False, spans=spans)
        agg = spans.export()
        service_total = sum(
            slot["total_ns"]
            for name, slot in agg["components"].items()
            if name != "client.wait")
        assert service_total == pytest.approx(
            result.mean_service_ns * result.requests, rel=1e-9)
        assert {"kv.cpu", "mem.dram", "mem.cxl"} <= set(
            agg["components"])

    @pytest.mark.parametrize("workers, digest", [
        (1, "64a3a3562065"),
        (2, "73afc002c1c4"),
    ])
    def test_spans_export_is_pinned(self, study, workers, digest):
        """The exported segments — waits, CPU and the DRAM/CXL split —
        hash to the digest recorded for workload A at fraction 0.5."""
        spans = SpanRecorder()
        _run(study, fastpath=False, spans=spans, workers=workers)
        assert spans_digest(spans.export())["digest"] == digest
