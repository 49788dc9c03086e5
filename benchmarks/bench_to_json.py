"""Record wall-clock timings for the experiment suite as BENCH_<label>.json.

Gives perf PRs a written trajectory: each run captures per-figure serial
seconds (plus ``--jobs N`` seconds for internally-sharded figures), the
whole-suite serial vs ``--jobs N`` wall clock, the effective CPU count
(the one ``--jobs`` uses) beside the cgroup CPU quota, so recorded
speedups carry honest context, and the DES engine microbenchmarks —
including raw scheduler throughput (``engine.events_per_sec``) — the
hot-path optimizations target.
Usage::

    PYTHONPATH=src python benchmarks/bench_to_json.py --label local --jobs 4
    PYTHONPATH=src python benchmarks/bench_to_json.py --label ci \
        --jobs 2 --ids fig3 fig5 --repeats 1 --append

The output lands next to the repo's other ``BENCH_*.json`` files (repo
root by default); compare fields across commits to see the trend.  See
docs/PERFORMANCE.md.

``--append`` keeps a bounded history instead of overwriting: the file
becomes ``{"label": ..., "history": [entry, ...]}`` with the newest
entry last and at most ``--history-limit`` entries retained.  An
existing single-entry file (the pre-history shape) migrates
transparently — it becomes the first history entry — so
``repro-report`` gets a real trajectory to plot either way
(docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from datetime import datetime, timezone
from pathlib import Path


def _time_once(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


def _best_of(fn, repeats: int) -> float:
    """Best-of-N wall clock (minimum is the least noisy estimator)."""
    return min(_time_once(fn) for _ in range(max(1, repeats)))


def cgroup_cpus() -> float | None:
    """The cgroup-v2 CPU quota (``cpu.max``), or ``None`` when unset."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        return None


def _load_sibling(name: str):
    """Import a benchmarks/ sibling by path (works however this file
    was loaded — ``python benchmarks/bench_to_json.py`` or an importlib
    spec, neither of which guarantees benchmarks/ on sys.path)."""
    import importlib.util

    spec = importlib.util.spec_from_file_location(
        name, Path(__file__).resolve().parent / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def engine_microbench(repeats: int) -> dict:
    """The DES hot paths: raw event throughput + the e2e sims."""
    from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim

    rate = _load_sibling("engine_events_per_sec").events_per_sec(
        repeats=repeats)
    read_sweep_s = _best_of(
        lambda: CxlEndToEndSim().sweep([1, 2, 4, 8, 12, 16, 32],
                                       lines_per_thread=1000),
        repeats)
    write_run_s = _best_of(
        lambda: CxlWriteEndToEndSim().run(threads=8,
                                          lines_per_thread=1000),
        repeats)
    return {"events_per_sec": round(rate),
            "e2e_read_sweep_s": round(read_sweep_s, 4),
            "e2e_write_run_s": round(write_run_s, 4)}


def append_history(path: Path, entry: dict, *, limit: int) -> dict:
    """Fold ``entry`` into ``path``'s bounded history (newest last).

    Reads the existing file if any: a history-shaped file gains one
    entry; a legacy single-entry file (the pre-``--append`` shape, with
    its measurements at top level) is migrated in place — it becomes
    the first history entry; an unreadable file starts a fresh history.
    Only the last ``limit`` entries are kept.
    """
    history: list[dict] = []
    try:
        existing = json.loads(path.read_text())
    except (FileNotFoundError, json.JSONDecodeError, OSError):
        existing = None
    if isinstance(existing, dict):
        if isinstance(existing.get("history"), list):
            history = [item for item in existing["history"]
                       if isinstance(item, dict)]
        elif "suite" in existing or "figures" in existing:
            history = [existing]
    history.append(entry)
    return {"label": entry["label"], "history": history[-limit:]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Time the experiment suite, write BENCH_<label>.json")
    parser.add_argument("--label", required=True,
                        help="suffix for BENCH_<label>.json")
    parser.add_argument("--jobs", type=int, default=4, metavar="N",
                        help="worker count for the parallel pass "
                             "(default: 4)")
    parser.add_argument("--ids", nargs="*", default=None,
                        help="experiment ids or aliases, e.g. figC "
                             "(default: all)")
    parser.add_argument("--full", action="store_true",
                        help="time full-resolution sweeps")
    parser.add_argument("--repeats", type=int, default=2,
                        help="repetitions per measurement, best-of "
                             "(default: 2)")
    parser.add_argument("--out", default=None,
                        help="output path (default: "
                             "<repo>/BENCH_<label>.json)")
    parser.add_argument("--append", action="store_true",
                        help="append to a bounded dated history in the "
                             "output file instead of overwriting "
                             "(migrates a single-entry file in place)")
    parser.add_argument("--history-limit", type=int, default=20,
                        metavar="N",
                        help="entries retained with --append "
                             "(default: 20)")
    args = parser.parse_args(argv)
    if args.history_limit < 1:
        print("error: --history-limit must be >= 1", file=sys.stderr)
        return 2

    import repro
    from repro.experiments import REGISTRY
    from repro.experiments.registry import resolve_id
    from repro.experiments.runner import _run_ids
    from repro.parallel import effective_cpu_count

    ids = [resolve_id(eid) for eid in args.ids] if args.ids \
        else sorted(REGISTRY)
    unknown = [eid for eid in ids if eid not in REGISTRY]
    if unknown:
        print(f"error: unknown experiment id(s): {unknown}",
              file=sys.stderr)
        return 2
    fast = not args.full

    # Measure the parallel pass FIRST, while this process is still
    # lean: the suite schedule forks worker pools, and forking after
    # the serial figure loop has bloated the parent heap overstates
    # the wall time vs what `repro-experiments --jobs N` (a fresh
    # process) actually costs.  Same scheduling as
    # `repro-experiments --jobs N --no-cache`: one unit per sweep
    # point of the point experiments, one per experiment for the rest.
    parallel_total = _best_of(
        lambda: _run_ids(ids, fast=fast, jobs=args.jobs,
                         use_cache=False),
        args.repeats)
    print(f"{'suite':20s} --jobs {args.jobs} {parallel_total:7.3f}s",
          flush=True)

    figures = {}
    for eid in ids:
        seconds = _best_of(lambda: REGISTRY[eid].run(fast=fast),
                           args.repeats)
        figures[eid] = {"serial_s": round(seconds, 4)}
        line = f"{eid:20s} serial {seconds:7.3f}s"
        if REGISTRY[eid].points and args.jobs > 1:
            jobs_seconds = _best_of(
                lambda: _run_ids([eid], fast=fast, jobs=args.jobs,
                                 use_cache=False),
                args.repeats)
            figures[eid]["jobs_s"] = round(jobs_seconds, 4)
            line += f"  --jobs {args.jobs} {jobs_seconds:7.3f}s"
        print(line, flush=True)

    serial_total = sum(entry["serial_s"] for entry in figures.values())
    speedup = serial_total / parallel_total if parallel_total else 0.0
    print(f"{'suite':20s} serial {serial_total:7.3f}s  "
          f"--jobs {args.jobs} {parallel_total:7.3f}s  "
          f"(x{speedup:.2f})", flush=True)

    engine = engine_microbench(args.repeats)
    print(f"{'engine':20s} {engine['events_per_sec']:,} events/s  "
          f"read-sweep {engine['e2e_read_sweep_s']}s  "
          f"write-run {engine['e2e_write_run_s']}s")

    payload = {
        "label": args.label,
        "recorded_at": datetime.now(timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ"),
        "version": repro.__version__,
        "python": platform.python_version(),
        "cpus": effective_cpu_count(),
        "cgroup_cpus": cgroup_cpus(),
        "mode": "full" if args.full else "fast",
        "jobs": args.jobs,
        "figures": figures,
        "suite": {
            "serial_s": round(serial_total, 4),
            "parallel_s": round(parallel_total, 4),
            "speedup": round(speedup, 3),
        },
        "engine": engine,
    }
    out = Path(args.out) if args.out \
        else Path(__file__).resolve().parent.parent \
        / f"BENCH_{args.label}.json"
    if args.append:
        payload = append_history(out, payload,
                                 limit=args.history_limit)
    out.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
