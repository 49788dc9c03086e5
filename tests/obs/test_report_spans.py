"""Report-side span handling: loading and rendering
(docs/OBSERVABILITY.md)."""

import json

from repro.obs.report import (
    build_report,
    load_results,
    main,
    markdown_to_html,
)
from repro.telemetry.spans import SpanConfig, SpanRecorder


def _span_payload():
    recorder = SpanRecorder(SpanConfig(exemplars=2))
    for i in range(10):
        recorder.record(i, i * 100.0,
                        [("client.wait", 40.0 + i), ("kv.cpu", 60.0)])
    return {"config": {"exemplars": 2, "windows": 0},
            "points": {"point-a": recorder.export()}}


class TestLoadSpans:
    def test_loads_spans_files_only(self, tmp_path):
        payload = _span_payload()
        (tmp_path / "figX.spans.json").write_text(json.dumps(payload))
        (tmp_path / "figX.spans.trace.json").write_text(
            json.dumps({"traceEvents": []}))
        (tmp_path / "figX.json").write_text(json.dumps(
            {"experiment_id": "figX", "checks": [], "passed": True}))
        (tmp_path / "odd.spans.json").write_text('{"points": []}')
        spans = load_results(tmp_path).spans
        assert list(spans) == ["figX"]
        assert spans["figX"]["points"]

    def test_span_files_do_not_pollute_experiments(self, tmp_path):
        (tmp_path / "figX.spans.json").write_text(
            json.dumps(_span_payload()))
        (tmp_path / "figX.spans.trace.json").write_text(
            json.dumps({"traceEvents": []}))
        assert load_results(tmp_path).experiments == {}

    def test_corrupt_file_exits_2(self, tmp_path, capsys):
        (tmp_path / "bad.spans.json").write_text("{nope")
        assert main(["--results", str(tmp_path),
                     "--ledger", str(tmp_path / "none.jsonl"),
                     "--bench", str(tmp_path / "nobench")]) == 2
        assert "bad.spans.json" in capsys.readouterr().err


class TestTailAttributionSection:
    def _report(self, spans):
        return build_report(experiments={}, metrics={}, ledger=[],
                            bench_trends={}, spans=spans)

    def test_section_renders_breakdown_and_waterfalls(self):
        report = self._report({"figX": _span_payload()})
        assert "## Tail attribution" in report
        assert "### figX" in report
        assert "client.wait" in report
        assert "request #" in report

    def test_no_spans_no_section(self):
        assert "Tail attribution" not in self._report({})

    def test_html_renders_code_fences_as_pre(self):
        html = markdown_to_html(self._report({"figX": _span_payload()}))
        assert "<pre>" in html
        assert "```" not in html
