"""Event recording, Chrome JSON schema, and the no-op tracer."""

import json

import pytest

from repro.errors import TelemetryError
from repro.telemetry import NULL_TRACER, NullTracer, Tracer
from repro.telemetry.report import (
    REQUIRED_EVENT_KEYS,
    trace_track_names,
    validate_chrome_trace,
)
from repro.telemetry.tracer import TRACE_PID


class TestRecording:
    def test_complete_span(self):
        tracer = Tracer()
        tracer.complete("core", "read", 100.0, 50.0, bank=3)
        (event,) = tracer.events
        assert (event.track, event.name, event.phase) == ("core", "read",
                                                          "X")
        assert event.ts_ns == 100.0
        assert event.dur_ns == 50.0
        assert event.args == {"bank": 3}

    def test_negative_duration_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer().complete("core", "read", 100.0, -1.0)

    def test_instant_and_count(self):
        tracer = Tracer()
        tracer.instant("cxl.port", "stall", 10.0)
        tracer.count("cxl.device.wbuf", "occupancy", 20.0, 7.0)
        phases = [event.phase for event in tracer.events]
        assert phases == ["i", "C"]
        assert tracer.events[1].args == {"value": 7.0}

    def test_track_ids_stable_in_creation_order(self):
        tracer = Tracer()
        assert tracer.track_id("core") == 1
        assert tracer.track_id("dram.channel") == 2
        assert tracer.track_id("core") == 1
        assert tracer.tracks == ["core", "dram.channel"]

    def test_empty_track_name_rejected(self):
        with pytest.raises(TelemetryError):
            Tracer().track_id("")


class TestChromeExport:
    def make_tracer(self):
        tracer = Tracer(process_name="unit-test")
        tracer.complete("core", "read", 1000.0, 500.0)
        tracer.instant("cxl.port", "stall", 1200.0)
        tracer.count("cxl.device.wbuf", "occupancy", 1300.0, 3.0)
        return tracer

    def test_json_parses_and_validates(self):
        obj = json.loads(self.make_tracer().to_json())
        validate_chrome_trace(obj)
        assert obj["displayTimeUnit"] == "ns"

    def test_required_keys_on_every_event(self):
        obj = self.make_tracer().chrome_trace()
        for event in obj["traceEvents"]:
            for key in REQUIRED_EVENT_KEYS:
                assert key in event, (event, key)
            assert event["pid"] == TRACE_PID

    def test_timestamps_are_microseconds(self):
        obj = self.make_tracer().chrome_trace()
        span = next(e for e in obj["traceEvents"] if e["ph"] == "X")
        assert span["ts"] == 1.0      # 1000 ns -> 1 us
        assert span["dur"] == 0.5

    def test_thread_metadata_names_tracks(self):
        obj = self.make_tracer().chrome_trace()
        assert trace_track_names(obj) == {"core", "cxl.port",
                                          "cxl.device.wbuf"}

    def test_write_roundtrip(self, tmp_path):
        path = tmp_path / "trace.json"
        self.make_tracer().write(path)
        obj = validate_chrome_trace(json.loads(path.read_text()))
        assert len(obj["traceEvents"]) > 3


class TestNullTracer:
    def test_disabled_and_shared(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_records_nothing(self):
        tracer = NullTracer()
        tracer.complete("core", "read", 0.0, 1.0)
        tracer.instant("core", "x", 0.0)
        tracer.count("core", "c", 0.0, 1.0)
        assert tracer.events == []

    def test_exports_valid_empty_trace(self):
        obj = validate_chrome_trace(NullTracer().chrome_trace())
        # Only the process_name metadata event remains.
        assert [e["ph"] for e in obj["traceEvents"]] == ["M"]
