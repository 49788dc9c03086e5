"""Spanned experiment runs: determinism, closure, and CLI wiring.

The acceptance bar for the span layer (docs/TELEMETRY.md): a spanned
``cluster-pooling`` run yields a per-component breakdown whose segment
sums close on the end-to-end totals, carries at least K tail exemplar
waterfalls, and is **byte-identical** between serial and ``--jobs 2``
— same contract for a declarative scenario.
"""

import json

import pytest

from repro.experiments.registry import REGISTRY
from repro.experiments.runner import _run_ids
from repro.telemetry.spans import SpanConfig

SPAN_CONFIG = SpanConfig(exemplars=3)


def _payload(eid, jobs, span_config=SPAN_CONFIG):
    """A spanned fast run: in process, or through the suite runner's
    point units on a pool of ``jobs`` workers."""
    if jobs == 1:
        return REGISTRY[eid].run(fast=True, span_config=span_config)
    results, failures, _, _ = _run_ids(
        [eid], fast=True, jobs=jobs, use_cache=False, checkpoint=False,
        span_config=span_config)
    assert failures == {}
    (_, result), = results
    return result


class TestClusterPooling:
    @pytest.fixture(scope="class")
    def serial(self):
        return _payload("cluster-pooling", 1)

    def test_serial_equals_jobs2_byte_identical(self, serial):
        parallel = _payload("cluster-pooling", 2)
        dump = lambda r: json.dumps(r.to_dict(), sort_keys=True)  # noqa: E731
        assert dump(serial) == dump(parallel)
        assert serial.spans == parallel.spans

    def test_breakdown_closes_on_end_to_end(self, serial):
        for name, agg in serial.spans["points"].items():
            component_total = sum(
                slot["total_ns"] for slot in agg["components"].values())
            assert component_total == pytest.approx(
                agg["total_ns"], rel=1e-9), name

    def test_every_point_has_k_exemplars(self, serial):
        for agg in serial.spans["points"].values():
            expected = min(SPAN_CONFIG.exemplars, agg["requests"])
            assert len(agg["exemplars"]) == expected

    def test_rendered_includes_attribution_section(self, serial):
        assert "Tail attribution" in serial.rendered
        assert "Slowest trace" in serial.rendered

    def test_span_shape_checks_pass(self, serial):
        assert serial.passed
        claims = [check.claim for check in serial.checks]
        assert any("sum to end-to-end" in claim for claim in claims)
        assert any("slowest traces" in claim for claim in claims)

    def test_spans_off_result_has_no_spans_payload(self):
        result = REGISTRY["cluster-pooling"].run(fast=True)
        assert result.spans == {}
        assert "spans" not in result.to_dict()


class TestScenario:
    def test_serial_equals_jobs2_byte_identical(self):
        config = SpanConfig(exemplars=2, windows=4)
        serial = _payload("scn-bursty-traffic", 1, config)
        parallel = _payload("scn-bursty-traffic", 2, config)
        assert json.dumps(serial.to_dict(), sort_keys=True) \
            == json.dumps(parallel.to_dict(), sort_keys=True)
        assert serial.spans["points"]

    def test_windows_present_per_point(self):
        config = SpanConfig(exemplars=1, windows=4)
        result = _payload("scn-bursty-traffic", 1, config)
        for agg in result.spans["points"].values():
            assert len(agg["windows"]) == 4
            assert sum(w["requests"] for w in agg["windows"]) \
                == agg["requests"]


class TestRegistryGating:
    def test_non_span_experiment_refuses_span_config(self):
        from repro.errors import ExperimentError

        with pytest.raises(ExperimentError, match="span config"):
            REGISTRY["fig3"].run(fast=True, span_config=SPAN_CONFIG)

    def test_accepts_spans_detection(self):
        assert REGISTRY["cluster-pooling"].accepts_spans
        assert REGISTRY["cluster-degraded"].accepts_spans
        assert not REGISTRY["fig3"].accepts_spans


class TestCacheKeys:
    def test_span_config_folds_into_run_config(self):
        from repro.experiments.runner import run_config

        spans_off = run_config(True)
        spans_on = run_config(True, span_config=SPAN_CONFIG)
        assert "spans" not in spans_off
        assert spans_on["spans"] == SPAN_CONFIG.to_dict()
        assert run_config(True, span_config=SpanConfig(exemplars=9)) \
            != spans_on
