"""The KvServer Lindley fast path must replay the DES byte-for-byte.

``workers == 1`` collapses the capacity-1 FIFO station to the Lindley
recursion (no event queue); ``KvServer._run_des`` is the engine reference.
Every RunResult field — and the telemetry registry the run leaves
behind — must be *exactly* equal between the two, because experiment
payloads are cached content-addressed and compared byte-for-byte.
"""

import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, RedisYcsbStudy
from repro.telemetry import SpanRecorder, Telemetry
from repro.telemetry.spans import spans_digest
from repro.workloads import WORKLOADS

REQUESTS = 2_000
QPS = 50_000.0


@pytest.fixture(scope="module")
def study():
    return RedisYcsbStudy(build_system(combined_testbed()),
                          num_keys=10_000)


def _run(study, *, fastpath: bool, workload="A", fraction=0.5,
         telemetry=None, workers=1, requests=REQUESTS):
    """``fastpath=True`` takes the public dispatcher, ``False`` the DES."""
    store = study.build_store(WORKLOADS[workload], fraction)
    try:
        server = KvServer(store, seed=study.seed, workers=workers,
                          telemetry=telemetry)
        if fastpath:
            return server.run(QPS, requests=requests)
        return server._run_des(QPS, requests)
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

    def test_registry_parity(self, study):
        """Metrics-only telemetry sees identical gauges either way."""
        readings = []
        for fastpath in (True, False):
            telemetry = Telemetry.metrics_only()
            _run(study, fastpath=fastpath, telemetry=telemetry)
            registry = telemetry.registry
            readings.append({
                name: registry.gauge(name).value
                for name in ("sim.engine.events_processed",
                             "sim.engine.now_ns",
                             "apps.kvstore.p99_sojourn_ns",
                             "apps.kvstore.achieved_qps")
            })
        assert readings[0] == readings[1]


def _explode(self, target_qps, requests):
    raise AssertionError("fast path taken")


class TestGating:
    def test_multi_worker_skips_the_fast_path(self, study, monkeypatch):
        """workers > 1 has real queueing concurrency — no fast path."""
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        result = _run(study, fastpath=True, workers=2)
        assert result.requests == REQUESTS

    def test_single_worker_takes_the_fast_path(self, study,
                                               monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        with pytest.raises(AssertionError, match="fast path"):
            _run(study, fastpath=True)

    def test_run_des_processes_two_events_per_request(self, study):
        telemetry = Telemetry.metrics_only()
        _run(study, fastpath=False, telemetry=telemetry, requests=100)
        # One arrival event plus one finish event per request; the
        # fast path sets the same gauge without running an engine.
        assert telemetry.registry.gauge(
            "sim.engine.events_processed").value == 200


class TestSpanGating:
    """Span recording opts into the DES; spans-off keeps the fast path.

    The tracing layer must cost nothing when disabled: the default
    NULL_SPANS recorder leaves the ``workers == 1`` gate exactly as it
    was (pinned by :class:`TestGating` above), while an enabled
    recorder needs real event interleaving and therefore the engine.
    """

    def test_spans_enabled_forces_des(self, study, monkeypatch):
        monkeypatch.setattr(KvServer, "_run_fast", _explode)
        telemetry = Telemetry(spans=SpanRecorder())
        result = _run(study, fastpath=True, telemetry=telemetry)
        assert result.requests == REQUESTS
        export = telemetry.spans.export()
        assert export["requests"] == REQUESTS

    def test_spanned_run_result_matches_plain_des(self, study):
        """Recording spans must not perturb a single RunResult float."""
        telemetry = Telemetry(spans=SpanRecorder())
        spanned = _run(study, fastpath=True, telemetry=telemetry)
        plain = _run(study, fastpath=False)
        assert spanned == plain

    def test_service_components_close_on_service_total(self, study):
        """kv.cpu + mem.* segments sum to the mean-service total —
        client.wait is the only segment outside the service time."""
        telemetry = Telemetry(spans=SpanRecorder())
        result = _run(study, fastpath=True, telemetry=telemetry)
        agg = telemetry.spans.export()
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
        telemetry = Telemetry(spans=SpanRecorder())
        _run(study, fastpath=True, telemetry=telemetry, workers=workers)
        assert spans_digest(telemetry.spans.export())["digest"] == digest
