"""Unit coverage for the span/trace layer (docs/TELEMETRY.md).

The recorder is pure sim-time arithmetic, so everything here is exact:
segment sums close on the recorded totals, exemplar selection is a
deterministic sort, and the Perfetto export must validate against the
same checker the tracer's traces do.
"""

import pytest

from repro.telemetry import SpanConfig, SpanRecorder
from repro.telemetry.report import trace_track_names, validate_chrome_trace
from repro.telemetry.spans import (
    SpanError,
    breakdown_rows,
    combine_aggregates,
    perfetto_spans_trace,
    render_attribution,
    render_waterfall,
    spans_digest,
)


class TestSpanConfig:
    def test_defaults(self):
        config = SpanConfig()
        assert config.exemplars == 4
        assert config.windows == 0

    @pytest.mark.parametrize("spec,expected", [
        ("", SpanConfig()),
        ("k=8", SpanConfig(exemplars=8)),
        ("exemplars=2", SpanConfig(exemplars=2)),
        ("k=8,windows=6", SpanConfig(exemplars=8, windows=6)),
        (" windows=3 , k=1 ", SpanConfig(exemplars=1, windows=3)),
    ])
    def test_parse(self, spec, expected):
        assert SpanConfig.parse(spec) == expected

    @pytest.mark.parametrize("spec", [
        "k", "k=x", "depth=3", "k=0", "windows=-1",
        "k=4,exemplars=8", "windows=2,WINDOWS=3",
    ])
    def test_parse_rejects(self, spec):
        with pytest.raises(SpanError):
            SpanConfig.parse(spec)

    def test_to_dict_is_canonical(self):
        assert SpanConfig(exemplars=3, windows=2).to_dict() == \
            {"exemplars": 3, "windows": 2}


def _record_some(recorder, n=10):
    for i in range(n):
        recorder.record(i, i * 1000.0,
                        [("wait", 100.0 * (i + 1)), ("cpu", 50.0),
                         ("mem", 25.0)])


class TestRecorder:
    def test_component_sums_close_on_total(self):
        recorder = SpanRecorder()
        _record_some(recorder)
        agg = recorder.export()
        assert agg["requests"] == 10
        component_total = sum(slot["total_ns"]
                              for slot in agg["components"].values())
        assert component_total == pytest.approx(agg["total_ns"],
                                                rel=1e-12)

    def test_zero_duration_segments_dropped(self):
        recorder = SpanRecorder()
        recorder.record(0, 0.0, [("a", 10.0), ("b", 0.0)])
        agg = recorder.export()
        assert list(agg["components"]) == ["a"]

    def test_exemplars_slowest_first_index_tiebreak(self):
        recorder = SpanRecorder(SpanConfig(exemplars=3))
        recorder.record(5, 0.0, [("a", 100.0)])
        recorder.record(1, 0.0, [("a", 100.0)])   # same total, lower idx
        recorder.record(2, 0.0, [("a", 300.0)])
        recorder.record(3, 0.0, [("a", 50.0)])
        agg = recorder.export()
        assert [ex["index"] for ex in agg["exemplars"]] == [2, 1, 5]

    def test_exemplar_cap(self):
        recorder = SpanRecorder(SpanConfig(exemplars=2))
        _record_some(recorder)
        assert len(recorder.export()["exemplars"]) == 2

    def test_tail_is_p99_conditioned(self):
        recorder = SpanRecorder()
        _record_some(recorder, n=100)
        agg = recorder.export()
        assert agg["tail"]["requests"] < agg["requests"]
        # The slowest request is always at or above its own p99.
        assert agg["tail"]["requests"] >= 1
        tail_total = sum(slot["total_ns"]
                         for slot in agg["tail"]["components"].values())
        assert tail_total == pytest.approx(agg["tail"]["total_ns"],
                                           rel=1e-12)

    def test_windows_partition_requests(self):
        recorder = SpanRecorder(SpanConfig(windows=4))
        _record_some(recorder, n=20)
        agg = recorder.export()
        windows = agg["windows"]
        assert len(windows) == 4
        assert sum(w["requests"] for w in windows) == 20
        for window in windows:
            if window["requests"]:
                assert window["throughput_rps"] > 0
                assert "p99_ns" in window

    def test_empty_recorder_exports_none(self):
        assert SpanRecorder().export() is None


class TestRecordBatch:
    def test_batch_matches_one_record_per_request(self):
        single, batched = SpanRecorder(), SpanRecorder()
        _record_some(single)
        batched.record_batch(
            range(10), [i * 1000.0 for i in range(10)], "request",
            [("wait", [100.0 * (i + 1) for i in range(10)]),
             ("cpu", [50.0] * 10), ("mem", [25.0] * 10)])
        assert batched.export() == single.export()

    def test_zero_padding_and_per_request_kinds(self):
        recorder = SpanRecorder(SpanConfig(exemplars=2))
        recorder.record_batch([0, 1], [0.0, 5.0], ["get", "put"],
                              [("retry", [7.0, 0.0]),
                               ("cpu", [1.0, 2.0])])
        exemplars = recorder.export()["exemplars"]
        assert [ex["segments"] for ex in exemplars] == \
            [[["retry", 7.0], ["cpu", 1.0]], [["cpu", 2.0]]]
        assert [ex["kind"] for ex in exemplars] == ["get", "put"]


class TestNonFinite:
    """A NaN or infinite duration is rejected, not folded into totals."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_record_rejects(self, bad):
        recorder = SpanRecorder()
        recorder.record(0, 0.0, [("a", 1.0)])
        with pytest.raises(SpanError, match=r"'mem' of request 49"):
            recorder.record(49, 0.0, [("cpu", 2.0), ("mem", bad)])
        assert recorder.export()["requests"] == 1

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"),
                                     float("-inf")])
    def test_record_batch_rejects(self, bad):
        recorder = SpanRecorder()
        cpu = [float(i + 2) for i in range(200)]
        mem = [3.0] * 200
        mem[49] = bad
        with pytest.raises(SpanError, match=r"'mem' of request 49"):
            recorder.record_batch(range(200), [0.0] * 200, "get",
                                  [("cpu", cpu), ("mem", mem)])
        assert recorder.export() is None

    def test_record_batch_rejects_non_finite_start(self):
        with pytest.raises(SpanError, match="start nan of request 3"):
            SpanRecorder().record_batch([2, 3], [0.0, float("nan")], "get",
                                        [("cpu", [1.0, 1.0])])


class TestCombine:
    def test_single_passthrough(self):
        recorder = SpanRecorder()
        _record_some(recorder)
        agg = recorder.export()
        assert combine_aggregates([agg]) == agg

    def test_combine_sums_and_reranks(self):
        first, second = SpanRecorder(), SpanRecorder()
        first.record(0, 0.0, [("a", 100.0)])
        first.record(1, 0.0, [("a", 900.0)])
        second.record(0, 0.0, [("a", 500.0), ("b", 10.0)])
        combined = combine_aggregates([first.export(), second.export()])
        assert combined["requests"] == 3
        assert combined["components"]["a"]["count"] == 3
        assert combined["exemplars"][0]["total_ns"] == 900.0

    def test_combine_empty_raises(self):
        with pytest.raises(SpanError):
            combine_aggregates([])


class TestRendering:
    def test_breakdown_rows_sorted_by_mean_share(self):
        recorder = SpanRecorder()
        _record_some(recorder)
        rows = breakdown_rows(recorder.export())
        shares = [mean for _, mean, _ in rows]
        assert shares == sorted(shares, reverse=True)
        assert sum(shares) == pytest.approx(1.0)

    def test_render_attribution_mentions_components(self):
        recorder = SpanRecorder()
        _record_some(recorder)
        text = render_attribution(recorder.export(), title="t")
        assert "t: 10 requests" in text
        for name in ("wait", "cpu", "mem"):
            assert name in text

    def test_render_waterfall_lists_segments_in_order(self):
        recorder = SpanRecorder(SpanConfig(exemplars=1))
        recorder.record(7, 10.0, [("first", 30.0), ("second", 70.0)])
        text = render_waterfall(recorder.export()["exemplars"][0])
        assert "request #7" in text
        assert text.index("first") < text.index("second")


class TestPerfettoExport:
    def _points(self):
        recorder = SpanRecorder(SpanConfig(exemplars=2))
        _record_some(recorder)
        return {"point-a": recorder.export()}

    def test_trace_validates(self):
        trace = perfetto_spans_trace(self._points())
        validate_chrome_trace(trace)
        assert trace_track_names(trace) >= {"wait", "cpu", "mem"}

    def test_slices_chain_back_to_back(self):
        trace = perfetto_spans_trace(self._points())
        slices = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        # Segments of one exemplar are laid out contiguously in time.
        by_request = {}
        for event in slices:
            by_request.setdefault(event["args"]["request"],
                                  []).append(event)
        for events in by_request.values():
            for prev, nxt in zip(events, events[1:]):
                assert nxt["ts"] == pytest.approx(
                    prev["ts"] + prev["dur"])

    def test_flow_events_open_and_close(self):
        trace = perfetto_spans_trace(self._points())
        phases = [e["ph"] for e in trace["traceEvents"]]
        assert phases.count("s") == phases.count("f") == 2


class TestDigest:
    def test_counts_nested_exemplars(self):
        recorder = SpanRecorder(SpanConfig(exemplars=3))
        _record_some(recorder)
        payload = {"points": {"p1": recorder.export(),
                              "p2": recorder.export()}}
        digest = spans_digest(payload)
        assert digest["exemplars"] == 6
        assert len(digest["digest"]) == 12

    def test_digest_is_stable_and_content_sensitive(self):
        payload = {"points": {"p": {"exemplars": [], "total_ns": 1.0}}}
        assert spans_digest(payload) == spans_digest(payload)
        changed = {"points": {"p": {"exemplars": [], "total_ns": 2.0}}}
        assert spans_digest(payload)["digest"] \
            != spans_digest(changed)["digest"]
