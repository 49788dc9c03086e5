"""The ``repro-report`` CLI: one dashboard over everything a run leaves.

Aggregates four result streams into a single deterministic Markdown
(and optionally HTML) report:

* ``repro-experiments --save DIR`` JSON (``<id>.json`` verdict files);
* telemetry metrics snapshots (``*.metrics.json``);
* span payloads from ``--spans`` runs (``<id>.spans.json``) — the
  "Tail attribution" section: critical-path breakdown bars plus the
  slowest-request waterfalls (docs/TELEMETRY.md);
* the run ledger (``results/runs.jsonl``, docs/OBSERVABILITY.md) —
  per-figure wall-clock trend lines;
* ``BENCH_*.json`` histories: one entry per perfbench run, each
  metric as its median and quartiles (``benchmarks/bench_to_json.py``
  converts perfbench's ``results.json``).

Determinism contract: the same inputs render byte-identical output.
Every timestamp in the report comes from the ledger records; the
report itself never reads a clock.  Tables iterate sorted keys only.

``--baseline baseline.json`` (written by ``--write-baseline``) turns
the report into a regression gate: the process exits non-zero when a
previously-passing shape check flips to failing or a bench metric
regresses.  A bench metric (``<label>.<workload>.<metric>``, every one
lower-is-better) regresses when its latest median exceeds the baseline
median by more than ``--threshold`` percent *and* its latest first
quartile lies above the baseline's third quartile, so a shift inside
the run-to-run spread does not fail the gate.  The raw host times and
the host speed (``host_*``) are recorded and rendered, never gated.

Examples::

    repro-experiments fig3 fig5 --save out
    repro-report --results out --bench . --out report.md --html report.html
    repro-report --results out --write-baseline baseline.json
    repro-report --results out --baseline baseline.json   # gate: exit 1
"""

from __future__ import annotations

import argparse
import html
import json
import sys
from pathlib import Path
from typing import NamedTuple

from ..analysis.sparkline import trend
from ..canonical import write_json
from .ledger import figure_wall_history, read_ledger
from .runlog import EXIT_FAILED_CHECKS, EXIT_OK, RunLog

BASELINE_SCHEMA_VERSION = 2

QUARTILES = ("median", "q1", "q3")
"""The summary fields of a bench metric that the baseline stores."""


# --------------------------------------------------------------------------
# input loading

class ResultsError(ValueError):
    """A file in the ``--results`` directory that is not readable JSON."""


class Results(NamedTuple):
    """What :func:`load_results` found in a ``--save`` directory."""

    experiments: dict[str, dict]
    """``{experiment_id: saved verdict JSON}`` (``<id>.json``)."""
    metrics: dict[str, dict]
    """``{stem: snapshot}`` (``<stem>.metrics.json``)."""
    spans: dict[str, dict]
    """``{experiment_id: span payload}`` (``<id>.spans.json``)."""


UNREAD_SUFFIXES = (".profile.json", ".trace.json")
"""Profiles and Perfetto traces are viewer food, not report input."""


def load_results(results_dir: Path) -> Results:
    """Experiments, metrics snapshots and span payloads from a directory.

    Reads every ``*.json`` except profiles and traces.  JSON of another
    shape (a baseline, a stray config) is skipped, but a file that is
    not readable JSON raises :class:`ResultsError` naming it: skipping
    a truncated ``<id>.json`` would let the regression gate pass on a
    figure it never saw.
    """
    results = Results({}, {}, {})
    if not results_dir.is_dir():
        return results
    for path in sorted(results_dir.glob("*.json")):
        name = path.name
        if name.endswith(UNREAD_SUFFIXES):
            continue
        try:
            data = json.loads(path.read_text())
        except (ValueError, OSError) as exc:
            raise ResultsError(
                f"{path}: not readable JSON: {exc}") from None
        if not isinstance(data, dict):
            continue
        if name.endswith(".metrics.json"):
            results.metrics[name[: -len(".metrics.json")]] = data
        elif name.endswith(".spans.json"):
            if isinstance(data.get("points"), dict):
                results.spans[name[: -len(".spans.json")]] = data
        elif "experiment_id" in data and "checks" in data:
            results.experiments[data["experiment_id"]] = data
    return results


class BenchHistoryError(ValueError):
    """A ``BENCH_*.json`` that is not a well-formed bench history."""


def load_bench_histories(bench_dir: Path) -> dict[str, list[dict]]:
    """``{label: [entry, ...]}`` for every ``BENCH_<label>.json``.

    A file holds ``{"label": ..., "history": [entry, ...]}``, oldest
    entry first (``benchmarks/bench_to_json.py``).  A file that is not
    JSON, or not of that shape down to each metric's numeric
    quartiles, raises :class:`BenchHistoryError` naming the file and
    the field: skipping it would let the bench gate pass on no data.
    """
    histories: dict[str, list[dict]] = {}
    if not bench_dir.is_dir():
        return histories
    for path in sorted(bench_dir.glob("BENCH_*.json")):
        try:
            obj = json.loads(path.read_text())
        except (json.JSONDecodeError, OSError) as exc:
            raise BenchHistoryError(
                f"{path}: not readable JSON: {exc}") from None
        problem = _bench_history_problem(obj)
        if problem:
            raise BenchHistoryError(f"{path}: {problem}")
        histories[path.stem[len("BENCH_"):]] = obj["history"]
    return histories


def _bench_history_problem(obj: object) -> str | None:
    """Why ``obj`` is not a bench history, or ``None``."""
    if not isinstance(obj, dict) or not isinstance(obj.get("history"),
                                                   list):
        return "has no history list"
    for index, entry in enumerate(obj["history"]):
        where = f"history[{index}]"
        workloads = entry.get("workloads") if isinstance(entry, dict) \
            else None
        if not isinstance(workloads, dict):
            return f"{where} has no workloads object"
        for workload, metrics in workloads.items():
            if not isinstance(metrics, dict):
                return f"{where}.workloads.{workload} is not an object"
            for metric, summary in metrics.items():
                if not isinstance(summary, dict) or not all(
                        isinstance(summary.get(key), (int, float))
                        for key in QUARTILES):
                    return (f"{where}.workloads.{workload}.{metric} needs "
                            f"numeric {', '.join(QUARTILES)}")
    return None


def bench_metric_trends(histories: dict[str, list[dict]]) \
        -> dict[str, list[dict]]:
    """Flatten histories to ``{label.workload.metric: [summary, ...]}``.

    A summary is one entry's ``{median, q1, q3, n}`` for the metric,
    oldest first; the metric's trend is the list of their medians.
    """
    trends: dict[str, list[dict]] = {}
    for label in sorted(histories):
        for entry in histories[label]:
            workloads = entry.get("workloads", {})
            for workload in sorted(workloads):
                for metric, summary in sorted(workloads[workload].items()):
                    trends.setdefault(f"{label}.{workload}.{metric}",
                                      []).append(summary)
    return trends


def _gated(metric: str) -> bool:
    """Raw host times and the host speed describe the host, not the
    program, so the gate never reads them."""
    return not metric.rsplit(".", 1)[-1].startswith("host_")


# --------------------------------------------------------------------------
# baseline

def build_baseline(experiments: dict[str, dict],
                   bench_trends: dict[str, list[dict]]) -> dict:
    """Current state as a committed-baseline JSON object."""
    return {
        "schema": BASELINE_SCHEMA_VERSION,
        "experiments": {
            eid: {"passed": bool(data.get("passed")),
                  "checks": {check["claim"]: bool(check["passed"])
                             for check in data.get("checks", [])}}
            for eid, data in sorted(experiments.items())
        },
        "bench": {metric: {key: values[-1][key] for key in QUARTILES}
                  for metric, values in sorted(bench_trends.items())
                  if values and _gated(metric)},
    }


def baseline_problem(baseline: object) -> str | None:
    """Why ``baseline`` is not a usable schema-2 baseline, or ``None``."""
    if not isinstance(baseline, dict):
        return "is not a JSON object"
    if baseline.get("schema") != BASELINE_SCHEMA_VERSION:
        return (f"has schema {baseline.get('schema')!r}; this "
                f"repro-report reads schema {BASELINE_SCHEMA_VERSION} "
                f"(regenerate it with --write-baseline)")
    bench = baseline.get("bench", {})
    if not isinstance(bench, dict):
        return "field bench is not a JSON object"
    for metric, summary in bench.items():
        if not isinstance(summary, dict) or not all(
                isinstance(summary.get(key), (int, float))
                for key in QUARTILES):
            return f"bench.{metric} needs numeric {', '.join(QUARTILES)}"
    return None


def find_regressions(experiments: dict[str, dict],
                     bench_trends: dict[str, list[dict]],
                     baseline: dict, *,
                     threshold_pct: float) -> list[str]:
    """Deterministic list of regression descriptions (empty = clean).

    Only inputs present on *both* sides are compared: a baseline
    experiment or metric missing from the current inputs is skipped
    (CI sweeps cover a subset of the full suite), and anything new has
    no baseline to regress against.  A bench metric is compared by its
    latest summary (see the module docstring for the rule).
    """
    regressions: list[str] = []
    for eid in sorted(baseline.get("experiments", {})):
        base = baseline["experiments"][eid]
        current = experiments.get(eid)
        if current is None:
            continue
        if base.get("passed") and not current.get("passed"):
            regressions.append(f"experiment {eid}: verdict flipped "
                               f"PASS -> FAIL")
        current_checks = {check["claim"]: bool(check["passed"])
                          for check in current.get("checks", [])}
        for claim in sorted(base.get("checks", {})):
            if base["checks"][claim] \
                    and current_checks.get(claim) is False:
                regressions.append(
                    f"experiment {eid}: check flipped to FAIL: {claim}")
    factor = threshold_pct / 100.0
    for metric in sorted(baseline.get("bench", {})):
        values = bench_trends.get(metric)
        base = baseline["bench"][metric]
        if not values or not _gated(metric) or base["median"] <= 0:
            continue
        now = values[-1]
        change = (now["median"] - base["median"]) / base["median"]
        if change > factor and now["q1"] > base["q3"]:
            regressions.append(
                f"bench {metric}: median {base['median']:g} -> "
                f"{now['median']:g} ({change * 100.0:+.1f}% past "
                f"{threshold_pct:g}% threshold; q1 {now['q1']:g} above "
                f"baseline q3 {base['q3']:g})")
    return regressions


# --------------------------------------------------------------------------
# rendering

def _md_table(headers: list[str], rows: list[list[str]]) -> list[str]:
    lines = ["| " + " | ".join(headers) + " |",
             "|" + "|".join("---" for _ in headers) + "|"]
    lines += ["| " + " | ".join(row) + " |" for row in rows]
    return lines


def build_report(*, experiments: dict[str, dict],
                 metrics: dict[str, dict],
                 ledger: list[dict],
                 bench_trends: dict[str, list[dict]],
                 regressions: list[str] | None = None,
                 baseline_name: str | None = None,
                 last: int = 10,
                 spans: dict[str, dict] | None = None,
                 waterfalls: int = 2) -> str:
    """The full Markdown dashboard (pure function of its inputs)."""
    lines: list[str] = ["# repro observability report", ""]

    lines += ["## Experiments", ""]
    if experiments:
        rows = []
        failing: list[str] = []
        for eid in sorted(experiments):
            data = experiments[eid]
            checks = data.get("checks", [])
            passed = sum(1 for check in checks if check["passed"])
            wall = figure_wall_history(ledger, eid)
            rows.append([
                eid,
                "PASS" if data.get("passed") else "FAIL",
                f"{passed}/{len(checks)}",
                f"`{trend(wall)}`" + (f" {wall[-1]:.3f}s" if wall
                                      else ""),
            ])
            failing += [f"- `{eid}`: {check['claim']} "
                        f"(measured {check['measured']})"
                        for check in checks if not check["passed"]]
        lines += _md_table(["experiment", "verdict", "checks",
                            "wall trend"], rows)
        if failing:
            lines += ["", "Failing checks:", ""] + failing
    else:
        lines += ["No saved experiment JSON found."]
    lines += [""]

    lines += ["## Run ledger", ""]
    if ledger:
        lines += [f"{len(ledger)} recorded run(s); last "
                  f"{min(last, len(ledger))} shown.", ""]
        rows = []
        for record in ledger[-last:]:
            verdicts = record.get("verdicts", {})
            passed = sum(1 for verdict in verdicts.values()
                         if verdict.get("passed"))
            judged = sum(1 for verdict in verdicts.values()
                         if verdict.get("passed") is not None)
            cache = record.get("cache", {})
            rows.append([
                record.get("started_at", "?"),
                record.get("tool", "?"),
                str(record.get("exit_code", "?")),
                f"{record.get('wall_s', 0.0):.2f}",
                f"{len(cache.get('hits', []))}h/"
                f"{len(cache.get('misses', []))}m",
                f"{passed}/{judged}" if judged else "-",
                " ".join(record.get("ids", [])) or "-",
            ])
        lines += _md_table(["started (UTC)", "tool", "exit", "wall s",
                            "cache", "verdicts", "ids"], rows)
    else:
        lines += ["No ledger records found."]
    lines += [""]

    lines += ["## Bench trends", ""]
    if bench_trends:
        rows = [[metric, f"{values[-1]['median']:g}",
                 f"{values[-1]['q1']:g}–{values[-1]['q3']:g}",
                 f"`{trend([summary['median'] for summary in values])}`",
                 str(len(values))]
                for metric, values in sorted(bench_trends.items())]
        lines += _md_table(["metric", "median", "q1–q3", "trend",
                            "points"], rows)
    else:
        lines += ["No BENCH_*.json files found."]
    lines += [""]

    if spans:
        from ..telemetry.spans import (
            combine_aggregates,
            render_attribution,
            render_waterfall,
        )

        lines += ["## Tail attribution", ""]
        for eid in sorted(spans):
            points = spans[eid].get("points", {})
            if not points:
                continue
            combined = combine_aggregates(
                [points[name] for name in sorted(points)])
            lines += [f"### {eid}", "", "```"]
            lines += render_attribution(
                combined, title="critical path").splitlines()
            for exemplar in combined.get("exemplars", [])[:waterfalls]:
                lines += [""] + render_waterfall(exemplar).splitlines()
            lines += ["```", ""]

    if metrics:
        lines += ["## Metrics snapshots", ""]
        rows = [[name, str(len(snapshot))]
                for name, snapshot in sorted(metrics.items())]
        lines += _md_table(["snapshot", "metrics"], rows) + [""]

    if regressions is not None:
        lines += [f"## Baseline comparison ({baseline_name})", ""]
        if regressions:
            lines += [f"{len(regressions)} regression(s) detected:", ""]
            lines += [f"- REGRESSION: {item}" for item in regressions]
        else:
            lines += ["No regressions against the baseline."]
        lines += [""]

    return "\n".join(lines).rstrip() + "\n"


def markdown_to_html(markdown: str, *, title: str = "repro report") \
        -> str:
    """A small deterministic Markdown-to-HTML conversion.

    Covers exactly what :func:`build_report` emits — headings, pipe
    tables, bullet lists, fenced code blocks, inline code, paragraphs —
    so the dashboard needs no third-party renderer.
    """
    def inline(text: str) -> str:
        out, parts = html.escape(text), []
        while "`" in out:
            before, _, rest = out.partition("`")
            code, tick, rest = rest.partition("`")
            if not tick:
                out = before + "`" + code
                break
            parts.append(before + f"<code>{code}</code>")
            out = rest
        return "".join(parts) + out

    body: list[str] = []
    lines = markdown.splitlines()
    index = 0
    while index < len(lines):
        line = lines[index]
        if line.startswith("```"):
            code: list[str] = []
            index += 1
            while index < len(lines) \
                    and not lines[index].startswith("```"):
                code.append(html.escape(lines[index]))
                index += 1
            body.append("<pre>" + "\n".join(code) + "</pre>")
        elif line.startswith("#"):
            level = len(line) - len(line.lstrip("#"))
            body.append(f"<h{level}>{inline(line[level:].strip())}"
                        f"</h{level}>")
        elif line.startswith("|"):
            rows = []
            while index < len(lines) and lines[index].startswith("|"):
                cells = [cell.strip() for cell
                         in lines[index].strip("|").split("|")]
                rows.append(cells)
                index += 1
            index -= 1
            body.append("<table>")
            for row_index, cells in enumerate(rows):
                if row_index == 1:          # the |---| separator row
                    continue
                tag = "th" if row_index == 0 else "td"
                body.append(
                    "<tr>" + "".join(f"<{tag}>{inline(cell)}</{tag}>"
                                     for cell in cells) + "</tr>")
            body.append("</table>")
        elif line.startswith("- "):
            body.append("<ul>")
            while index < len(lines) and lines[index].startswith("- "):
                body.append(f"<li>{inline(lines[index][2:])}</li>")
                index += 1
            index -= 1
            body.append("</ul>")
        elif line.strip():
            body.append(f"<p>{inline(line)}</p>")
        index += 1
    style = ("body{font-family:monospace;margin:2em;max-width:72em}"
             "table{border-collapse:collapse;margin:1em 0}"
             "td,th{border:1px solid #999;padding:0.25em 0.6em;"
             "text-align:left}"
             "th{background:#eee}code{background:#f4f4f4}")
    return ("<!DOCTYPE html>\n<html><head><meta charset=\"utf-8\">"
            f"<title>{html.escape(title)}</title>"
            f"<style>{style}</style></head>\n<body>\n"
            + "\n".join(body) + "\n</body></html>\n")


# --------------------------------------------------------------------------
# CLI

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-report",
        description="Aggregate saved results, the run ledger, and "
                    "BENCH_*.json trajectories into one deterministic "
                    "dashboard")
    parser.add_argument("--results", metavar="DIR", default="results",
                        help="directory holding --save experiment JSON "
                             "and *.metrics.json (default: results)")
    parser.add_argument("--ledger", metavar="PATH", default=None,
                        help="run ledger path (default: "
                             "results/runs.jsonl, or $REPRO_LEDGER_PATH)")
    parser.add_argument("--bench", metavar="DIR", default=".",
                        help="directory scanned for BENCH_*.json "
                             "(default: .)")
    parser.add_argument("--out", metavar="PATH", default="-",
                        help="Markdown output path ('-' = stdout)")
    parser.add_argument("--html", metavar="PATH", default=None,
                        help="also write an HTML rendering")
    parser.add_argument("--baseline", metavar="PATH", default=None,
                        help="compare against a baseline JSON; exit 1 "
                             "on regression")
    parser.add_argument("--write-baseline", metavar="PATH", default=None,
                        help="write the current state as a baseline "
                             "JSON and exit")
    parser.add_argument("--threshold", type=float, default=10.0,
                        metavar="PCT",
                        help="bench regression threshold on the "
                             "median, in percent (default: 10)")
    parser.add_argument("--last", type=int, default=10, metavar="N",
                        help="ledger rows shown (default: 10)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runlog = RunLog("repro-report")
    if args.threshold < 0:
        return runlog.error("--threshold must be >= 0")
    if args.last < 1:
        return runlog.error("--last must be >= 1")

    try:
        experiments, metrics, spans = load_results(Path(args.results))
    except ResultsError as exc:
        return runlog.error(f"bad results file: {exc}")
    ledger = read_ledger(args.ledger)
    try:
        bench_trends = bench_metric_trends(
            load_bench_histories(Path(args.bench)))
    except BenchHistoryError as exc:
        return runlog.error(f"bad bench history: {exc}")
    runlog.debug("inputs", experiments=len(experiments),
                 snapshots=len(metrics), spans=len(spans),
                 ledger_records=len(ledger),
                 bench_metrics=len(bench_trends))

    if args.write_baseline:
        baseline = build_baseline(experiments, bench_trends)
        target = write_json(args.write_baseline, baseline)
        runlog.info("baseline-written", path=str(target),
                    experiments=len(baseline["experiments"]),
                    bench_metrics=len(baseline["bench"]))
        return EXIT_OK

    regressions: list[str] | None = None
    baseline_name: str | None = None
    if args.baseline:
        baseline_path = Path(args.baseline)
        try:
            baseline = json.loads(baseline_path.read_text())
        except FileNotFoundError:
            return runlog.error(f"baseline not found: {baseline_path}")
        except json.JSONDecodeError as exc:
            return runlog.error(
                f"baseline is not valid JSON: {baseline_path}: {exc}")
        problem = baseline_problem(baseline)
        if problem:
            return runlog.error(f"baseline {baseline_path} {problem}")
        baseline_name = baseline_path.name
        regressions = find_regressions(experiments, bench_trends,
                                       baseline,
                                       threshold_pct=args.threshold)

    report = build_report(experiments=experiments, metrics=metrics,
                          ledger=ledger, bench_trends=bench_trends,
                          regressions=regressions,
                          baseline_name=baseline_name, last=args.last,
                          spans=spans)
    if args.out == "-":
        sys.stdout.write(report)
    else:
        target = Path(args.out)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report)
        runlog.info("report-written", path=str(target),
                    bytes=len(report))
    if args.html:
        target = Path(args.html)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(markdown_to_html(report))
        runlog.info("html-written", path=str(target))

    if regressions:
        return runlog.error(
            f"{len(regressions)} regression(s) against "
            f"{baseline_name}", code=EXIT_FAILED_CHECKS,
            regressions=len(regressions))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
