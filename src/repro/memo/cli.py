"""The ``memo`` command-line interface.

§4.1: "Users can provide command-line arguments to specify the workloads
to be executed by MEMO."  Example invocations::

    memo latency
    memo chase --scheme CXL
    memo bw --threads 1 2 4 8 16 32
    memo random --blocks 1024 16384 65536
    memo movdir
    memo dsa --batches 1 16 128

Every bench accepts ``--trace out.json`` (dump a Perfetto-loadable
timeline + an ``out.metrics.json`` snapshot) and ``--metrics`` (print
the metrics table after the report).  See docs/TELEMETRY.md.

Run-level observability (docs/OBSERVABILITY.md): every invocation
appends a record to the run ledger (``results/runs.jsonl``,
``--no-ledger`` to opt out), and ``--profile [DIR]`` writes a
wall-clock phase profile to ``DIR/memo-<bench>.profile.json``.

Resilience (docs/RESILIENCE.md): the sharded benches (``bw`` /
``random``) accept ``--unit-timeout`` / ``--retries`` /
``--fail-fast``; a unit still poisoned after its retries turns into
exit code 1 with a one-line summary, never a traceback.  ``memo`` has
no ``--resume`` — bench curves are cheap closed forms, so there is no
checkpoint journal to replay (that lives in ``repro-experiments``).

Exit codes: 0 = ok, 1 = bench unit failed under supervision,
2 = bad arguments.
"""

from __future__ import annotations

import argparse
import sys
import time
from datetime import datetime, timezone

from .. import build_system, combined_testbed
from ..cpu.system import MemoryScheme
from ..errors import ExperimentError
from ..obs import EXIT_FAILED_CHECKS, Profiler, RunLog
from ..telemetry import NULL_TELEMETRY, Telemetry
from .bandwidth_bench import SequentialBandwidthBench
from .dsa_bench import DsaBench
from .latency_bench import LatencyBench
from .movdir_bench import MovdirBench
from .pointer_chase import PointerChaseBench
from .random_bench import RandomBlockBench

RUNLOG = RunLog("memo")
"""The CLI's shared event stream (stderr; docs/OBSERVABILITY.md)."""


def _parse_schemes(names: list[str] | None) -> list[MemoryScheme] | None:
    if not names:
        return None
    lookup = {scheme.label: scheme for scheme in MemoryScheme}
    try:
        return [lookup[name] for name in names]
    except KeyError as missing:
        # Consolidated error path: the RunLog helper emits the stderr
        # event and pins the bad-args exit code (2).
        raise SystemExit(RUNLOG.error(
            f"unknown scheme {missing}; choose from {sorted(lookup)}"))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="memo",
        description="MEMO microbenchmark on the simulated CXL testbed")
    sub = parser.add_subparsers(dest="bench", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scheme", nargs="*", default=None,
                        metavar="NAME",
                        help="memory schemes (DDR5-L8, DDR5-R1, CXL)")

    telemetry = argparse.ArgumentParser(add_help=False)
    telemetry.add_argument(
        "--trace", metavar="PATH", default=None,
        help="write a Chrome/Perfetto trace JSON (plus a "
             "PATH-adjacent .metrics.json snapshot)")
    telemetry.add_argument(
        "--metrics", action="store_true",
        help="print the telemetry metrics table after the report")
    telemetry.add_argument(
        "--profile", metavar="DIR", nargs="?", const="results",
        default=None,
        help="write a wall-clock phase profile to "
             "DIR/memo-<bench>.profile.json (DIR defaults to results/)")
    telemetry.add_argument(
        "--no-ledger", action="store_true",
        help="do not append this run to the results/runs.jsonl "
             "run ledger")
    telemetry.add_argument(
        "--scenario", metavar="NAME|FILE", default=None,
        help="build the testbed from a scenario's device profile "
             "(a shipped pack name or a scenario file; see "
             "docs/SCENARIOS.md) instead of the combined testbed")
    telemetry.add_argument(
        "--spans", action="store_true",
        help="print the analytic read-path attribution per scheme "
             "(cpu.stall / link / ctrl / media shares) and record a "
             "spans digest in the run ledger; see docs/TELEMETRY.md")

    parallel = argparse.ArgumentParser(add_help=False)
    parallel.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="shard sweep points across N worker processes "
             "(default: 1, serial; results are identical either way)")
    parallel.add_argument(
        "--unit-timeout", type=float, default=None, metavar="SECONDS",
        help="kill any curve unit running longer than SECONDS and "
             "count it as a timeout failure (default: no limit)")
    parallel.add_argument(
        "--retries", type=int, default=0, metavar="N",
        help="respawn a crashed/timed-out curve unit up to N times "
             "with jittered exponential backoff (default: 0)")
    parallel.add_argument(
        "--fail-fast", action="store_true",
        help="cancel the remaining units as soon as one unit "
             "exhausts its retries")

    latency = sub.add_parser("latency", parents=[common, telemetry],
                             help="Fig 2 left: flushed-line probes")
    latency.set_defaults(runner=_run_latency)

    chase = sub.add_parser("chase", parents=[common, telemetry],
                           help="Fig 2 right: pointer chase vs WSS")
    chase.set_defaults(runner=_run_chase)

    bandwidth = sub.add_parser("bw",
                               parents=[common, telemetry, parallel],
                               help="Fig 3: sequential bandwidth sweep")
    bandwidth.add_argument("--threads", nargs="*", type=int, default=None)
    bandwidth.set_defaults(runner=_run_bw)

    random_ = sub.add_parser("random",
                             parents=[common, telemetry, parallel],
                             help="Fig 5: random block bandwidth")
    random_.add_argument("--blocks", nargs="*", type=int, default=None,
                         help="block sizes in bytes")
    random_.add_argument("--threads", nargs="*", type=int, default=None)
    random_.set_defaults(runner=_run_random)

    movdir = sub.add_parser("movdir", parents=[telemetry],
                            help="Fig 4a: movdir64B route bandwidth")
    movdir.add_argument("--threads", nargs="*", type=int, default=None)
    movdir.set_defaults(runner=_run_movdir)

    dsa = sub.add_parser("dsa", parents=[telemetry],
                         help="Fig 4b: bulk movement methods")
    dsa.add_argument("--batches", nargs="*", type=int, default=None)
    dsa.set_defaults(runner=_run_dsa)

    replay = sub.add_parser(
        "replay", parents=[telemetry],
        help="replay a generated trace through the functional caches")
    replay.add_argument("--kind", choices=["ld", "st+wb", "nt-st"],
                        default="ld")
    replay.add_argument("--pattern", choices=["sequential", "random"],
                        default="sequential")
    replay.add_argument("--lines", type=int, default=4096)
    replay.add_argument("--block", type=int, default=4096,
                        help="random-pattern block size in bytes")
    replay.add_argument("--scheme", dest="scheme", default="CXL",
                        help="memory scheme to charge misses against")
    replay.set_defaults(runner=_run_replay)

    loaded = sub.add_parser("loaded", parents=[common, telemetry],
                            help="loaded-latency curves (MLC-style)")
    loaded.add_argument("--points", type=int, default=12)
    loaded.set_defaults(runner=_run_loaded)
    return parser


def _trace_mechanism_companions(telemetry, *, threads: int) -> None:
    """Run the mechanism-level DES twins of the analytic Fig-3 sweep.

    The analytic bench has no timeline — its numbers come from closed
    forms — so a ``--trace`` run derives one from the end-to-end flit
    simulators instead: a read sweep (core / cxl.port / dram.channel
    tracks) plus an nt-store run (cxl.device.wbuf occupancy).
    """
    from ..cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim

    CxlEndToEndSim(telemetry=telemetry).run(
        threads=min(threads, 8), lines_per_thread=256)
    CxlWriteEndToEndSim(telemetry=telemetry).run(
        threads=min(threads, 4), lines_per_thread=192)


def _run_latency(system, args, telemetry):
    return LatencyBench(system,
                        schemes=_parse_schemes(args.scheme)).run()


def _run_chase(system, args, telemetry):
    return PointerChaseBench(system,
                             schemes=_parse_schemes(args.scheme)).run()


def _supervision_policy(args):
    """A SupervisionPolicy from the CLI flags, or None when unasked.

    ``None`` keeps the benches on their historical serial/pool paths;
    any of ``--unit-timeout`` / ``--retries`` / ``--fail-fast`` opts
    the run into the repro.resilience supervised path.
    """
    timeout = getattr(args, "unit_timeout", None)
    retries = getattr(args, "retries", 0)
    fail_fast = getattr(args, "fail_fast", False)
    if timeout is None and not retries and not fail_fast:
        return None
    if timeout is not None and timeout <= 0:
        raise SystemExit(RUNLOG.error(
            f"--unit-timeout must be > 0, got {timeout}"))
    if retries < 0:
        raise SystemExit(RUNLOG.error(
            f"--retries must be >= 0, got {retries}"))
    from ..resilience import SupervisionPolicy

    return SupervisionPolicy(timeout_s=timeout, retries=retries,
                             fail_fast=fail_fast)


def _run_bw(system, args, telemetry):
    report = SequentialBandwidthBench(
        system, thread_counts=args.threads,
        schemes=_parse_schemes(args.scheme),
        jobs=getattr(args, "jobs", 1),
        policy=_supervision_policy(args)).run()
    if telemetry.enabled:
        _trace_mechanism_companions(
            telemetry, threads=max(args.threads or [8]))
        report.notes.append(
            "telemetry: timeline traced from the mechanism-level "
            "e2e read/nt-store simulators")
    return report


def _run_random(system, args, telemetry):
    report = RandomBlockBench(system, block_sizes=args.blocks,
                              thread_counts=args.threads,
                              schemes=_parse_schemes(args.scheme),
                              jobs=getattr(args, "jobs", 1),
                              policy=_supervision_policy(args)).run()
    if telemetry.enabled:
        _trace_mechanism_companions(
            telemetry, threads=max(args.threads or [8]))
        report.notes.append(
            "telemetry: timeline traced from the mechanism-level "
            "e2e read/nt-store simulators")
    return report


def _run_movdir(system, args, telemetry):
    return MovdirBench(system, thread_counts=args.threads).run()


def _run_dsa(system, args, telemetry):
    return DsaBench(system, batch_sizes=args.batches).run()


def _run_loaded(system, args, telemetry):
    from .loaded_latency import LoadedLatencyBench

    return LoadedLatencyBench(system, schemes=_parse_schemes(args.scheme),
                              points=args.points).run()


def _run_replay(system, args, telemetry):
    from ..analysis.series import Series
    from ..cpu.isa import AccessKind
    from ..units import MIB
    from .report import BenchReport
    from .trace import AccessTrace, replay

    kind = {k.value: k for k in AccessKind}[args.kind]
    schemes = _parse_schemes([args.scheme])
    scheme = schemes[0]
    if args.pattern == "sequential":
        trace = AccessTrace.sequential(kind, num_lines=args.lines)
    else:
        lines_per_block = max(1, args.block // 64)
        trace = AccessTrace.random_block(
            kind, num_blocks=max(1, args.lines // lines_per_block),
            block_bytes=args.block, region_bytes=256 * MIB)
    hierarchy = system.socket.new_hierarchy(telemetry=telemetry)
    result = replay(trace, system, scheme, hierarchy=hierarchy)
    report = BenchReport(title=f"trace replay: {args.pattern} "
                               f"{kind.value} on {scheme.label}")
    summary = Series("replay", x_label="metric", y_label="value")
    summary.append(0, result.hit_rate)
    summary.append(1, float(result.memory_reads))
    summary.append(2, float(result.memory_writes))
    summary.append(3, result.estimated_ns / 1000.0)
    report.add_series("replay-summary", summary)
    report.notes.append("metrics: 0=hit-rate 1=memory-reads "
                        "2=memory-writes 3=estimated-us")
    report.notes.append(
        f"estimated bandwidth: "
        f"{result.estimated_bandwidth / 1e9:.2f} GB/s")
    return report


def _span_schemes(system, args):
    """The schemes the ``--spans`` attribution covers (selection order)."""
    names = getattr(args, "scheme", None)
    if isinstance(names, str):
        names = [names]
    schemes = _parse_schemes(names)
    return schemes if schemes is not None else system.available_schemes()


def _analytic_spans_payload(system, schemes) -> dict:
    """Per-scheme read-path spans from the closed-form latency model.

    The benches here are analytic (no per-request DES), so the span
    waterfall is derived the same way the paper decomposes an idle
    read: CPU edge stall, then the backend's link / controller / media
    components (:meth:`~repro.mem.device.MemoryBackend.read_components_ns`).
    One synthetic request per scheme keeps the payload shape identical
    to a DES-spanned experiment's, so the same digest, report section,
    and Perfetto export apply.
    """
    from ..telemetry.spans import SpanConfig, SpanRecorder

    points = {}
    for scheme in schemes:
        backend = system.scheme_backend(scheme)
        recorder = SpanRecorder(SpanConfig(exemplars=1))
        segments = (("cpu.stall", system.edge_ns()),) \
            + tuple(backend.read_components_ns())
        recorder.record(0, 0.0, segments, kind=scheme.label)
        points[scheme.label] = recorder.export()
    return {"config": SpanConfig(exemplars=1).to_dict(),
            "points": points}


def _render_analytic_spans(payload: dict) -> str:
    from ..telemetry.spans import render_waterfall

    lines = ["Analytic read-path attribution (idle read, per scheme)"]
    for label in sorted(payload["points"]):
        exemplar = payload["points"][label]["exemplars"][0]
        lines.append("")
        lines.append(f"{label}: {exemplar['total_ns']:.1f} ns end-to-end")
        # The waterfall header names a request index; the scheme label
        # above already identifies the trace, so keep the bars only.
        lines.extend(render_waterfall(exemplar).splitlines()[1:])
    return "\n".join(lines)


def _append_ledger(args, argv, *, started_at: str, wall_s: float,
                   telemetry, exit_code: int = 0,
                   failed_units: str | None = None,
                   spans: dict | None = None) -> None:
    """Best-effort ledger append (I/O trouble never fails a bench run)."""
    from ..obs import append_record, describe_append_failure, run_record
    from ..telemetry.report import snapshot_digest

    bench_id = f"memo-{args.bench}"
    try:
        verdict = {"passed": None if exit_code == 0 else False,
                   "wall_s": round(wall_s, 4),
                   "cached": False}
        if failed_units:
            verdict["failed"] = failed_units
        record = run_record(
            tool="memo",
            argv=list(argv) if argv is not None else sys.argv[1:],
            ids=[bench_id], started_at=started_at, wall_s=wall_s,
            config={"bench": args.bench,
                    "scheme": getattr(args, "scheme", None)},
            verdicts={bench_id: verdict},
            metrics_digest=snapshot_digest(telemetry.registry),
            spans=spans,
            exit_code=exit_code)
        path = append_record(record)
        RUNLOG.debug("ledger-appended", path=str(path))
    except OSError as exc:
        RUNLOG.warn("ledger-append-failed",
                    **describe_append_failure(exc))


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    tracing = bool(getattr(args, "trace", None))
    wants_metrics = bool(getattr(args, "metrics", False))
    telemetry = (Telemetry.on(process_name=f"memo-{args.bench}")
                 if tracing or wants_metrics else NULL_TELEMETRY)
    jobs = getattr(args, "jobs", 1)
    if jobs > 1:
        from ..parallel import effective_cpu_count

        cpus = effective_cpu_count()
        if jobs > cpus:
            RUNLOG.warn("jobs-oversubscribed", jobs=jobs, cpus=cpus)
            print(f"note: --jobs {jobs} exceeds the {cpus} CPU(s) "
                  f"available to this process; capping the worker "
                  f"count at {cpus}", file=sys.stderr)
            args.jobs = cpus
    profiler = Profiler(enabled=bool(args.profile))
    started_at = datetime.now(timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")
    start = time.perf_counter()
    with profiler.phase("build-system"):
        testbed = combined_testbed()
        if getattr(args, "scenario", None):
            from ..errors import ScenarioError
            from ..scenarios import scenario_testbed

            try:
                testbed = scenario_testbed(args.scenario)
            except ScenarioError as exc:
                return RUNLOG.error(f"bad --scenario: {exc}")
        system = build_system(testbed)
    try:
        with profiler.phase(f"run:{args.bench}"):
            report = args.runner(system, args, telemetry)
    except ExperimentError as exc:
        # A supervised bench unit stayed poisoned after its retries.
        # Summarize on stderr and exit 1 — a traceback here would bury
        # the per-unit detail the supervisor already collected.
        RUNLOG.warn("bench-failed", bench=args.bench, error=str(exc))
        print(f"memo {args.bench} failed: {exc}", file=sys.stderr)
        wall_s = time.perf_counter() - start
        if not args.no_ledger:
            _append_ledger(args, argv, started_at=started_at,
                           wall_s=wall_s, telemetry=telemetry,
                           exit_code=EXIT_FAILED_CHECKS,
                           failed_units=str(exc))
        return EXIT_FAILED_CHECKS
    with profiler.phase("render+write"):
        print(report.render())
        if tracing:
            from pathlib import Path

            from ..telemetry.report import write_metrics, write_trace

            trace_path = write_trace(telemetry.tracer, args.trace)
            metrics_path = write_metrics(
                telemetry.registry,
                trace_path.with_suffix(
                    trace_path.suffix + ".metrics.json")
                if trace_path.suffix != ".json"
                else Path(str(trace_path)[: -len(".json")]
                          + ".metrics.json"))
            print(f"\ntrace written to {trace_path} "
                  f"(metrics: {metrics_path})")
        spans_payload = None
        if getattr(args, "spans", False):
            spans_payload = _analytic_spans_payload(
                system, _span_schemes(system, args))
            print()
            print(_render_analytic_spans(spans_payload))
        if wants_metrics:
            from ..telemetry.report import render_metrics

            print()
            print(render_metrics(telemetry.registry))
    wall_s = time.perf_counter() - start
    if args.profile:
        from pathlib import Path

        path = profiler.write(
            Path(args.profile) / f"memo-{args.bench}.profile.json",
            extra={"bench": args.bench, "wall_s": round(wall_s, 6)})
        RUNLOG.info("profile-written", path=str(path))
    if not args.no_ledger:
        from ..telemetry.spans import spans_digest

        _append_ledger(args, argv, started_at=started_at,
                       wall_s=wall_s, telemetry=telemetry,
                       spans=spans_digest(spans_payload)
                       if spans_payload is not None else None)
    return 0


if __name__ == "__main__":
    sys.exit(main())
