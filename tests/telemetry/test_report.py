"""Metrics rendering/export and trace validation."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import Registry, Tracer
from repro.telemetry.report import (
    render_metrics,
    validate_chrome_trace,
    write_metrics,
    write_trace,
)


def populated_registry() -> Registry:
    registry = Registry()
    registry.counter("cxl.e2e.read.completed").inc(42)
    registry.counter("mem.controller.busy_ns").inc(0.75)
    hist = registry.histogram("cxl.e2e.read.latency_ns")
    for value in (100.0, 200.0, 300.0):
        hist.record(value)
    return registry


class TestRenderMetrics:
    def test_empty_registry(self):
        assert render_metrics(Registry()) == "(no metrics recorded)"

    def test_lists_every_metric(self):
        text = render_metrics(populated_registry())
        assert "cxl.e2e.read.completed" in text
        assert "count=3" in text
        assert "0.75" in text


class TestWriteMetrics:
    def test_json_snapshot(self, tmp_path):
        path = write_metrics(populated_registry(),
                             tmp_path / "metrics.json")
        snap = json.loads(path.read_text())
        assert snap["cxl.e2e.read.completed"]["value"] == 42
        assert snap["cxl.e2e.read.latency_ns"]["count"] == 3
        assert snap["cxl.e2e.read.latency_ns"]["p50"] == 200.0


class TestWriteTrace:
    def test_written_file_is_valid(self, tmp_path):
        tracer = Tracer()
        tracer.complete("core", "read", 0.0, 10.0)
        path = write_trace(tracer, tmp_path / "trace.json")
        validate_chrome_trace(json.loads(path.read_text()))


class TestValidateChromeTrace:
    def test_accepts_minimal_trace(self):
        validate_chrome_trace({"traceEvents": [
            {"name": "a", "ph": "i", "ts": 0, "pid": 1, "tid": 1}]})

    def test_rejects_non_object(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace([])

    def test_rejects_missing_trace_events(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"events": []})

    def test_rejects_missing_required_key(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "i", "ts": 0, "pid": 1}]})

    def test_rejects_span_without_dur(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "X", "ts": 0, "pid": 1, "tid": 1}]})

    def test_rejects_non_numeric_ts(self):
        with pytest.raises(TelemetryError):
            validate_chrome_trace({"traceEvents": [
                {"name": "a", "ph": "i", "ts": "0", "pid": 1, "tid": 1}]})
