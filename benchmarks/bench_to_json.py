"""Convert a perfbench ``results.json`` into a ``BENCH_<label>.json`` entry.

perfbench (``perfbench/run.py``) is the repository's one timer; this
script only reshapes what it measured, so ``repro-report`` can plot the
trend and gate on it (docs/PERFORMANCE.md, docs/OBSERVABILITY.md).
Usage::

    python3 perfbench/run.py --out /tmp/bench
    python3 benchmarks/bench_to_json.py --results /tmp/bench/results.json \\
        --label local --append

The file is ``{"label": ..., "history": [entry, ...]}``, newest entry
last.  One entry holds ``label``, ``recorded_at``, perfbench's ``host``
and ``seed``, and ``workloads: {name: {metric: {median, q1, q3, n}}}``
copied from each workload's ``metrics`` (the end-to-end metrics plus
the raw ``host_*`` times and ``host_speed``).  ``--append`` adds the
entry to the existing history and keeps the last ``--history-limit``
entries; without it the file is rewritten with this entry alone.

Exit codes: 0 written; 1 a workload failed an operation (the run
measured a different program, so nothing is written); 2 bad input,
naming the offending field (a ``--smoke`` result is bad input: its
sizes are not comparable with a bench run's).
"""

from __future__ import annotations

import argparse
import json
import sys
from datetime import datetime, timezone
from pathlib import Path

SUMMARY_KEYS = ("median", "q1", "q3", "n")


class BadInput(ValueError):
    """The input or the existing output cannot be used; names why."""


def _number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def load_results(path: Path) -> dict:
    """perfbench's ``results.json``, checked down to every quartile."""
    try:
        results = json.loads(path.read_text())
    except FileNotFoundError:
        raise BadInput(f"{path}: no such file") from None
    except (OSError, json.JSONDecodeError) as exc:
        raise BadInput(f"{path}: not JSON: {exc}") from None
    if not isinstance(results, dict):
        raise BadInput(f"{path}: not a JSON object")
    for key in ("host", "seed", "smoke", "workloads"):
        if key not in results:
            raise BadInput(f"{path}: missing field {key!r}")
    if results["smoke"]:
        raise BadInput(f"{path}: a --smoke result; its sizes are not "
                       f"comparable with a bench run's")
    if not isinstance(results["workloads"], dict) \
            or not results["workloads"]:
        raise BadInput(f"{path}: field 'workloads' is empty or not an "
                       f"object")
    for name, workload in results["workloads"].items():
        where = f"workloads.{name}"
        if not isinstance(workload, dict):
            raise BadInput(f"{path}: field {where!r} is not an object")
        if not _number(workload.get("failed")):
            raise BadInput(f"{path}: field {where}.failed missing or "
                           f"not a number")
        metrics = workload.get("metrics")
        if not isinstance(metrics, dict) or not metrics:
            raise BadInput(f"{path}: field {where}.metrics missing or "
                           f"empty")
        for metric, summary in metrics.items():
            for key in SUMMARY_KEYS:
                if not isinstance(summary, dict) \
                        or not _number(summary.get(key)):
                    raise BadInput(f"{path}: field {where}.metrics."
                                   f"{metric}.{key} missing or not a "
                                   f"number")
    return results


def make_entry(results: dict, label: str) -> dict:
    """One history entry from a checked ``results.json``."""
    return {
        "label": label,
        "recorded_at": datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "host": results["host"],
        "seed": results["seed"],
        "workloads": {
            name: {metric: {key: summary[key] for key in SUMMARY_KEYS}
                   for metric, summary in workload["metrics"].items()}
            for name, workload in results["workloads"].items()},
    }


def append_history(path: Path, entry: dict, *, limit: int) -> dict:
    """``path``'s history plus ``entry`` (newest last), last ``limit``
    entries kept.  A missing file starts a new history; a file that is
    not a history raises :class:`BadInput` rather than being dropped."""
    history: list = []
    if path.exists():
        try:
            existing = json.loads(path.read_text())
        except (OSError, json.JSONDecodeError) as exc:
            raise BadInput(f"{path}: not JSON: {exc}") from None
        if not isinstance(existing, dict) \
                or not isinstance(existing.get("history"), list):
            raise BadInput(f"{path}: missing field 'history'")
        history = existing["history"]
    history.append(entry)
    return {"label": entry["label"], "history": history[-limit:]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Convert perfbench's results.json into a "
                    "BENCH_<label>.json history entry")
    parser.add_argument("--results", required=True, type=Path,
                        metavar="PATH",
                        help="perfbench's results.json")
    parser.add_argument("--label", required=True,
                        help="suffix for BENCH_<label>.json")
    parser.add_argument("--out", default=None, type=Path,
                        help="output path (default: "
                             "<repo>/BENCH_<label>.json)")
    parser.add_argument("--append", action="store_true",
                        help="append to the output file's history "
                             "instead of overwriting it")
    parser.add_argument("--history-limit", type=int, default=20,
                        metavar="N",
                        help="entries retained with --append "
                             "(default: 20)")
    args = parser.parse_args(argv)
    if args.history_limit < 1:
        print("error: --history-limit must be >= 1", file=sys.stderr)
        return 2
    out = args.out or Path(__file__).resolve().parent.parent \
        / f"BENCH_{args.label}.json"
    try:
        results = load_results(args.results)
        failed = [name for name, workload in results["workloads"].items()
                  if workload["failed"] > 0]
        if failed:
            print(f"error: {args.results}: workload(s) {', '.join(failed)} "
                  f"failed operations; nothing written", file=sys.stderr)
            return 1
        entry = make_entry(results, args.label)
        payload = append_history(out, entry, limit=args.history_limit) \
            if args.append else {"label": args.label, "history": [entry]}
    except BadInput as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out} ({len(payload['history'])} entries)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
