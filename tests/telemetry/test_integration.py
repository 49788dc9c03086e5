"""Telemetry wired through the simulators: determinism + track coverage."""

import json

from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.sim import LatencyRecorder
from repro.telemetry import NULL_TELEMETRY, Telemetry
from repro.telemetry.report import trace_track_names, validate_chrome_trace


def traced_read_run(threads=4, lines=64):
    telemetry = Telemetry.on()
    CxlEndToEndSim(telemetry=telemetry).run(threads=threads,
                                            lines_per_thread=lines)
    return telemetry


class TestDeterminism:
    def test_identical_runs_emit_identical_event_sequences(self):
        first = traced_read_run()
        second = traced_read_run()
        assert [e.key() for e in first.tracer.events] \
            == [e.key() for e in second.tracer.events]

    def test_identical_runs_serialize_identically(self):
        assert traced_read_run().tracer.to_json() \
            == traced_read_run().tracer.to_json()


class TestTrackCoverage:
    def test_read_sim_covers_port_dram_core_tracks(self):
        telemetry = traced_read_run()
        obj = validate_chrome_trace(
            json.loads(telemetry.tracer.to_json()))
        names = trace_track_names(obj)
        assert {"core", "cxl.port", "dram.channel"} <= names

    def test_write_sim_adds_wbuf_occupancy_track(self):
        telemetry = Telemetry.on()
        CxlWriteEndToEndSim(telemetry=telemetry).run(threads=2,
                                                     lines_per_thread=64)
        assert "cxl.device.wbuf" in telemetry.tracer.tracks
        phases = {e.phase for e in telemetry.tracer.events
                  if e.track == "cxl.device.wbuf"}
        assert "C" in phases        # occupancy counter samples

    def test_combined_run_spans_at_least_four_tracks(self):
        telemetry = Telemetry.on()
        CxlEndToEndSim(telemetry=telemetry).run(threads=2,
                                                lines_per_thread=32)
        CxlWriteEndToEndSim(telemetry=telemetry).run(threads=2,
                                                     lines_per_thread=32)
        obj = validate_chrome_trace(telemetry.tracer.chrome_trace())
        assert len(trace_track_names(obj)) >= 4


class TestMetricsWiring:
    def test_read_sim_populates_registry(self):
        telemetry = traced_read_run()
        snap = telemetry.registry.snapshot()
        assert snap["cxl.e2e.read.completed"]["value"] == 4 * 64
        assert snap["cxl.e2e.read.latency_ns"]["count"] == 4 * 64
        assert snap["cxl.e2e.read.latency_ns"]["p99"] > 0

    def test_disabled_telemetry_records_nothing(self):
        result = CxlEndToEndSim(telemetry=NULL_TELEMETRY).run(
            threads=2, lines_per_thread=32)
        assert result.completed == 64
        assert NULL_TELEMETRY.registry.snapshot() == {}
        assert not NULL_TELEMETRY.tracer.events

    def test_disabled_matches_enabled_results(self):
        plain = CxlEndToEndSim().run(threads=2, lines_per_thread=32)
        traced = CxlEndToEndSim(telemetry=Telemetry.on()).run(
            threads=2, lines_per_thread=32)
        assert plain == traced


class TestLatencyRecorderRouting:
    def test_recorder_wraps_histogram(self):
        recorder = LatencyRecorder("lat")
        for value in (10.0, 20.0, 30.0):
            recorder.record(value)
        assert recorder.histogram.count == 3
        assert recorder.p50() == recorder.histogram.p50() == 20.0

    def test_recorder_shares_registry_histogram(self):
        telemetry = Telemetry.on()
        hist = telemetry.registry.histogram("app.latency_ns")
        recorder = LatencyRecorder("app.latency_ns", histogram=hist)
        recorder.record(42.0)
        assert telemetry.registry.snapshot()["app.latency_ns"]["count"] \
            == 1
