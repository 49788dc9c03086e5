"""The ``repro-experiments`` CLI: regenerate any table/figure.

Examples::

    repro-experiments                 # run everything (fast parameters)
    repro-experiments fig3 fig5       # selected figures
    repro-experiments --only figC     # same selection, flag form
    repro-experiments --full fig6     # full-resolution sweep
    repro-experiments --jobs 4        # fan sweep points across processes
    repro-experiments --no-cache fig3 # force re-simulation
    repro-experiments --profile prof  # wall-clock profiles under prof/
    repro-experiments --list

Repeated runs are served from the content-addressed result cache under
``results/.cache/`` (key: experiment id + parameters + a source-tree
fingerprint, so any code edit invalidates automatically).  ``--jobs N``
runs the cache-miss work on one pool of up to ``N`` worker processes
that lives for the suite, one unit per sweep point of an experiment
that declares its points and one unit per other experiment.  Points
combine in order and results come back in id order, so output and
``--save`` files are identical to a serial run's.  See
docs/PERFORMANCE.md.

Observability (docs/OBSERVABILITY.md): figures print to **stdout**;
progress, leveled log events, and errors go to **stderr** only, so
serial and parallel stdout stay byte-identical.  Every run appends one
record to the run ledger (``results/runs.jsonl``, ``--no-ledger`` to
opt out); ``--profile DIR`` writes per-experiment wall-clock profiles
plus a suite-level phase breakdown, and ``--cprofile N`` adds a
cProfile top-N table.

Resilience (docs/RESILIENCE.md): every sweep journals completed units
to ``results/.checkpoint/`` as they land, so SIGINT/SIGTERM drain
gracefully and print a ``--resume`` hint; ``--resume`` replays the
journal and runs only the remainder, byte-identical to an
uninterrupted run.  ``--unit-timeout``/``--retries`` supervise worker
units (kill the worker, retry on a fresh one with deterministic
backoff); a unit that exhausts its retries fails its experiment, which
is reported per experiment instead of aborting the sweep
(``--fail-fast`` opts back into aborting).  Corrupt cache entries are
quarantined and recomputed, never fatal.  Exit codes: 0 = all checks
passed, 1 = a shape check failed or a unit failed to produce a result,
2 = bad arguments, 130 = interrupted (resume to continue).
"""

from __future__ import annotations

import argparse
import math
import signal
import sys
import time

from ..canonical import write_json
from ..obs import Profiler, RunHooks, RunLog, append_run, utc_timestamp
from ..obs.runlog import EXIT_FAILED_CHECKS, EXIT_INTERRUPTED, EXIT_OK
from .registry import (ALIASES, REGISTRY, ExperimentResult, PointPlan,
                       resolve_id)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description="Regenerate the paper's tables and figures on the "
                    "simulated testbed")
    parser.add_argument("ids", nargs="*",
                        help="experiment ids (default: all)")
    parser.add_argument("--only", action="append", metavar="ID",
                        default=None,
                        help="run only this experiment id or alias "
                             "(repeatable; combines with positional "
                             "ids)")
    parser.add_argument("--scenario", action="append", default=None,
                        metavar="NAME|FILE|pack",
                        help="run declarative scenario(s): a shipped "
                             "pack scenario by name, a scenario file "
                             "path, or 'pack' for the whole shipped "
                             "pack (repeatable; combines with ids; "
                             "see docs/SCENARIOS.md)")
    parser.add_argument("--full", action="store_true",
                        help="full-resolution sweeps (slower)")
    parser.add_argument("--list", action="store_true",
                        help="list available experiments")
    parser.add_argument("--validate", action="store_true",
                        help="run the cross-model validation suite")
    parser.add_argument("--save", metavar="DIR", default=None,
                        help="also write each result to DIR/<id>.txt "
                             "plus a machine-readable DIR/<id>.json")
    parser.add_argument("--jobs", type=int, default=1, metavar="N",
                        help="run experiments and their sweep points "
                             "across up to N worker processes, capped "
                             "at the usable CPUs (default: 1, serial)")
    parser.add_argument("--faults", metavar="SPEC", default=None,
                        help="run under a degraded-mode fault plan, "
                             "e.g. 'crc=0.01,poison=0.002,seed=7' "
                             "(keys: crc poison timeout stall stall-ns "
                             "timeout-ns backoff-ns retries width speed "
                             "seed; see docs/FAULTS.md)")
    parser.add_argument("--spans", metavar="SPEC", nargs="?",
                        const="", default=None,
                        help="record per-request spans for tail "
                             "attribution, e.g. 'k=8,windows=6' "
                             "(keys: k/exemplars windows; bare --spans "
                             "uses defaults; see docs/TELEMETRY.md)")
    parser.add_argument("--resilience", metavar="SPEC", default=None,
                        help="run cluster experiments under a request "
                             "resilience policy: a preset name "
                             "('hedged', 'guarded', ...) or a spec "
                             "like 'deadline-ns=60000,retries=2,"
                             "budget=0.1' (keys: deadline-ns retries "
                             "backoff-ns budget hedge breaker "
                             "breaker-alpha breaker-min "
                             "breaker-cooldown-ns shed; see "
                             "docs/CLUSTER.md)")
    parser.add_argument("--unit-timeout", type=float, default=None,
                        metavar="SECONDS",
                        help="kill and retry any worker unit exceeding "
                             "this wall clock (default: no timeout; "
                             "see docs/RESILIENCE.md)")
    parser.add_argument("--retries", type=int, default=0, metavar="N",
                        help="respawn a crashed/timed-out unit up to N "
                             "times with deterministic exponential "
                             "backoff (default: 0)")
    parser.add_argument("--resume", action="store_true",
                        help="replay completed units from the "
                             "results/.checkpoint journal of an "
                             "interrupted identical sweep, run only "
                             "the remainder")
    parser.add_argument("--fail-fast", action="store_true",
                        help="abort the sweep on the first unit "
                             "failure instead of recording it and "
                             "continuing")
    parser.add_argument("--no-checkpoint", action="store_true",
                        help="do not journal completed units under "
                             "results/.checkpoint (disables --resume)")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the results/.cache result cache "
                             "(neither read nor write)")
    parser.add_argument("--clear-cache", action="store_true",
                        help="delete every cached result, then proceed")
    parser.add_argument("--profile", metavar="DIR", nargs="?",
                        const="results", default=None,
                        help="write wall-clock profiles: DIR/<id>."
                             "profile.json per experiment plus "
                             "DIR/suite.profile.json (DIR defaults "
                             "to results/)")
    parser.add_argument("--cprofile", type=int, default=0, metavar="N",
                        help="add a cProfile top-N table to the suite "
                             "profile (implies --profile)")
    parser.add_argument("--no-ledger", action="store_true",
                        help="do not append this run to the "
                             "results/runs.jsonl run ledger")
    parser.add_argument("--no-progress", action="store_true",
                        help="suppress live stderr progress")
    parser.add_argument("--log-level", default=None,
                        choices=["debug", "info", "warn", "error"],
                        help="stderr event verbosity (default: info, "
                             "or $REPRO_LOG_LEVEL)")
    return parser


class _SweepControl:
    """Bridges SIGINT/SIGTERM handlers to the in-flight supervisor.

    The handler only calls :meth:`drain` (flag-setting, async-safe);
    the sweep attaches its :class:`SupervisedRunner` once it exists,
    and a drain requested *before* attachment still lands.
    """

    def __init__(self) -> None:
        self.runner = None
        self.requested = False

    def drain(self) -> None:
        self.requested = True
        if self.runner is not None:
            self.runner.request_drain()

    def attach(self, runner) -> None:
        self.runner = runner
        if self.requested:
            runner.request_drain()


def run_config(fast: bool, *, fault_plan=None, span_config=None,
               resilience=None) -> dict:
    """The result-shaping config material for cache keys and journals.

    Everything that can change an experiment's payload belongs here:
    ``fast`` mode and, when given, the full fault-plan and span
    configurations (a spanned result carries its attribution payload,
    so it must never be served from — or land in — a spans-off cache
    slot).  Tests that predict cache or journal paths should build their
    material through this function rather than hard-coding the dict
    shape.
    """
    config: dict = {"fast": fast}
    if fault_plan is not None:
        config["faults"] = fault_plan.to_dict()
    if span_config is not None:
        config["spans"] = span_config.to_dict()
    if resilience is not None:
        config["resilience"] = resilience.to_dict()
    return config


def config_for(experiment_id: str, config: dict) -> dict:
    """Fold an experiment's registered ``extra_config`` into the shared
    run config.

    Scenario-derived experiments carry their document content hash
    here, so editing a scenario file is a cache miss even though
    :func:`~repro.parallel.cache.package_fingerprint` only hashes
    Python sources.  Experiments without extras get the shared config
    unchanged (their keys are identical to pre-scenario releases).
    """
    experiment = REGISTRY.get(experiment_id)
    if experiment is None or not experiment.extra_config:
        return config
    return {**config, "extra": dict(experiment.extra_config)}


def _suite_config(ids: list[str], config: dict) -> dict:
    """The checkpoint-journal config: the shared config plus every
    selected experiment's extras (only when some exist, so suites
    without scenarios keep their historical journal hashes)."""
    extras = {eid: dict(REGISTRY[eid].extra_config) for eid in ids
              if eid in REGISTRY and REGISTRY[eid].extra_config}
    if not extras:
        return config
    return {**config, "extras": extras}


def _run_ids(ids: list[str], *, fast: bool, jobs: int,
             use_cache: bool, fault_plan=None, span_config=None,
             resilience=None,
             hooks: RunHooks = None,
             profiler: Profiler = None, policy=None,
             resume: bool = False, checkpoint: bool = True,
             control: _SweepControl | None = None):
    """Run (or cache-load / journal-replay) ``ids`` in order.

    One wave on one worker pool of ``min(jobs, effective_cpu_count())``
    workers that lives for the whole suite.  A cache-miss experiment
    that declares sweep points (``points``) expands into one unit per
    point; every other one is a single unit.  Every unit goes through
    one :class:`~repro.resilience.SupervisedRunner` map, the point
    units first so the long experiments start early, each group in id
    order.  When the last point of an experiment lands, its plan's
    ``combine`` builds the result in this process, in point order, so
    output matches a serial run byte-for-byte.  One failed point fails
    its experiment, and nothing partial is combined, cached or
    journaled.

    The cache key covers every result-shaping input: ``fast`` and, when
    given, the full fault-plan configuration — so a changed fault plan
    is a cache miss, never a stale healthy (or degraded) result.  The
    checkpoint journal is addressed by the same material plus the id
    list (:func:`~repro.resilience.suite_hash`), and every completed
    experiment is journaled **as it lands**, so an interrupt at any
    point keeps the finished prefix.

    Returns ``(results, failures, interrupted, journal)``: ``results``
    is ``[(eid, ExperimentResult)]`` in id order for experiments that
    have one; ``failures`` maps poisoned experiment ids to
    :class:`~repro.resilience.UnitFailure`; ``interrupted`` is True
    after a graceful drain; ``journal`` is the
    :class:`~repro.resilience.CheckpointJournal` (or ``None``).
    """
    from dataclasses import replace

    from ..parallel import ResultCache, effective_cpu_count, result_key
    from ..parallel.runner import worker_pool
    from ..parallel.sweeps import run_experiment, run_unit
    from ..resilience import (
        CheckpointJournal,
        SupervisedRunner,
        SupervisionPolicy,
        UnitFailure,
        suite_hash,
    )

    if hooks is None:
        hooks = RunHooks()
    if profiler is None:
        profiler = Profiler(enabled=False)
    if policy is None:
        policy = SupervisionPolicy()
    config = run_config(fast, fault_plan=fault_plan,
                        span_config=span_config,
                        resilience=resilience)
    cache = ResultCache(on_quarantine=hooks.cache_quarantined) \
        if use_cache else None
    keys = {eid: result_key(eid, config_for(eid, config))
            for eid in ids} if cache is not None else {}
    cached: dict[str, ExperimentResult] = {}
    if cache is not None:
        for eid in ids:
            payload = cache.get(keys[eid])
            if payload is not None:
                cached[eid] = ExperimentResult.from_payload(payload)

    journal = CheckpointJournal(suite_hash(ids, _suite_config(ids,
                                                              config))) \
        if checkpoint else None
    resumed: list[str] = []
    if journal is not None and resume:
        loaded = journal.load()
        for eid in ids:
            if eid not in cached and eid in loaded:
                cached[eid] = ExperimentResult.from_payload(loaded[eid])
                resumed.append(eid)

    misses = [eid for eid in ids if eid not in cached]
    for eid in ids:
        if eid in resumed:
            hooks.unit_resumed(eid)
        elif eid in cached:
            hooks.cache_hit(eid)
    for eid in misses:
        hooks.cache_miss(eid)
    plans = {}
    for eid in misses:
        if REGISTRY[eid].points:
            plans[eid] = REGISTRY[eid].plan(
                fast=fast, fault_plan=fault_plan, span_config=span_config,
                resilience=resilience)
        else:                      # one point: the whole experiment
            plans[eid] = PointPlan(
                run_experiment,
                [(eid, fast, fault_plan, span_config, resilience)], [eid],
                lambda values: values[0])
    experiments = sorted(misses, key=lambda eid: not REGISTRY[eid].points)
    # One entry per unit: its experiment, its label, and the spec of
    # the dispatcher unit run_unit.
    owners: list[str] = []
    names: list[str] = []
    units: list[tuple] = []
    first: dict[str, int] = {}
    for eid in experiments:
        plan = plans[eid]
        first[eid] = len(units)
        owners += [eid] * len(plan.specs)
        names += plan.labels
        units += [(eid, plan.fn, spec) for spec in plan.specs]
    pending = {eid: len(plans[eid].specs) for eid in experiments}
    values: dict[int, object] = {}
    wall = dict.fromkeys(experiments, 0.0)
    workers = min(jobs, effective_cpu_count()) if jobs > 1 else 1
    failures: dict[str, UnitFailure] = {}
    interrupted = False

    def cache_put(eid: str, payload: dict) -> None:
        cache.put(keys[eid], payload,
                  key_material={"experiment": eid,
                                "config": config_for(eid, config)})

    def record(eid: str, result: ExperimentResult) -> None:
        """Land one result: memory, result cache, checkpoint journal.

        Called as each experiment completes (not after the sweep), so
        the journal always holds the finished prefix.  Cache/journal
        I/O trouble degrades to a recompute later, never a failed run.
        """
        cached[eid] = result
        if cache is None and journal is None:
            return
        payload = result.payload()
        try:
            if cache is not None:
                cache_put(eid, payload)
            if journal is not None:
                journal.record(eid, payload)
        except OSError:
            pass
    # Resumed units re-enter the result cache so the *next* run is a
    # plain cache hit even after the journal is discarded.
    if cache is not None:
        for eid in resumed:
            try:
                cache_put(eid, cached[eid].payload())
            except OSError:
                pass

    def on_result(index: int, value) -> None:
        values[index] = value

    def on_progress(event: str, index: int, total: int,
                    wall_s: float | None = None,
                    kind: str | None = None,
                    attempt: int | None = None) -> None:
        eid = owners[index]
        if event == "started":
            if index == first[eid]:    # units start in submission order
                hooks.unit_started(eid)
        elif event == "finished":
            wall[eid] += wall_s
            pending[eid] -= 1
            if pending[eid]:
                return
            # The experiment's last unit landed, so all of them have:
            # combine them in point order.
            plan, start = plans[eid], first[eid]
            try:
                result = plan.combine(
                    [values.pop(i)
                     for i in range(start, start + len(plan.specs))])
            except Exception as exc:
                failures[eid] = UnitFailure(
                    index=index, unit=eid, kind="exception", attempts=1,
                    message=f"combine: {type(exc).__name__}: {exc}")
                hooks.unit_failed(eid, failures[eid])
                return
            record(eid, result)
            hooks.unit_finished(eid, wall_s=wall[eid])
        elif event == "retry":
            hooks.unit_retry(eid, attempt=attempt or 1,
                             kind=kind or "exception")
        # A "failed" unit is recorded from the outcome list after the
        # map, in unit order, so serial and --jobs runs record the same
        # failure for an experiment whose points fail together.

    with profiler.collecting(), worker_pool(workers):
        with profiler.phase("pooled-experiments"):
            runner = SupervisedRunner(workers, policy=policy,
                                      progress=on_progress,
                                      names=names,
                                      on_result=on_result)
            if control is not None:
                control.attach(runner)
            try:
                outcomes = runner.map(run_unit, units)
            except KeyboardInterrupt:
                outcomes = []
                interrupted = True
    if runner.drained:
        interrupted = True
    for outcome in outcomes:
        if outcome.ok or outcome.failure.kind == "interrupted":
            continue               # not poisoned — --resume reruns it
        eid = owners[outcome.index]
        if eid in failures:
            continue               # an earlier point already failed it
        failure = outcome.failure
        if failure.unit != eid:    # a point: name it, report its owner
            failure = replace(failure, unit=eid,
                              message=f"{failure.unit}: "
                                      f"{failure.message}")
        failures[eid] = failure
        hooks.unit_failed(eid, failure)
    results = [(eid, cached[eid]) for eid in ids if eid in cached]
    return results, failures, interrupted, journal


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    runlog = RunLog("repro-experiments", level=args.log_level)
    if args.jobs < 1:
        return runlog.error("--jobs must be >= 1")
    if args.cprofile < 0:
        return runlog.error("--cprofile must be >= 0")
    if args.unit_timeout is not None \
            and not 0 < args.unit_timeout < math.inf:
        return runlog.error(
            f"--unit-timeout must be positive and finite, got "
            f"{args.unit_timeout}")
    if args.retries < 0:
        return runlog.error("--retries must be >= 0")
    if args.resume and args.no_checkpoint:
        return runlog.error(
            "--resume needs the checkpoint journal; drop "
            "--no-checkpoint")
    if args.clear_cache:
        from ..parallel import ResultCache

        removed = ResultCache().clear()
        print(f"cleared {removed} cached result(s)")
    if args.list:
        for eid in sorted(REGISTRY):
            experiment = REGISTRY[eid]
            print(f"{eid:8s} {experiment.title}  [{experiment.paper_ref}]")
        return EXIT_OK
    if args.validate:
        from .. import build_system, combined_testbed
        from ..validate import cross_validate

        checks = cross_validate(build_system(combined_testbed()))
        for check in checks:
            print(check)
        if all(c.passed for c in checks):
            return EXIT_OK
        return runlog.error(
            f"{sum(1 for c in checks if not c.passed)} validation "
            f"check(s) failed", code=EXIT_FAILED_CHECKS)

    scenario_ids: list[str] = []
    if args.scenario:
        from ..errors import ScenarioError
        from ..scenarios import resolve_scenario_ids

        try:
            for spec in args.scenario:
                for eid in resolve_scenario_ids(spec):
                    if eid not in scenario_ids:
                        scenario_ids.append(eid)
        except ScenarioError as exc:
            return runlog.error(f"bad --scenario: {exc}")
    selected = list(args.ids) + (args.only or [])
    ids = [resolve_id(eid) for eid in selected] + scenario_ids \
        or sorted(REGISTRY)
    unknown = [eid for eid in ids if eid not in REGISTRY]
    if unknown:
        # The valid-id list includes scenario-derived ids (scn-*) and
        # the paper-figure aliases, so a typo is a one-edit fix.
        return runlog.error(
            "unknown experiment id(s): " + " ".join(sorted(unknown)),
            available=" ".join(sorted(REGISTRY)),
            aliases=" ".join(f"{alias}={target}" for alias, target
                             in sorted(ALIASES.items())))
    fault_plan = None
    if args.faults is not None:
        from ..errors import FaultError
        from ..faults import FaultPlan

        try:
            fault_plan = FaultPlan.parse(args.faults)
        except FaultError as exc:
            return runlog.error(f"bad --faults spec: {exc}")
        refusing = [eid for eid in ids
                    if not REGISTRY[eid].accepts_faults]
        if refusing:
            return runlog.error(
                "experiment(s) do not accept a fault plan: "
                + " ".join(sorted(refusing)))
    span_config = None
    if args.spans is not None:
        from ..telemetry.spans import SpanConfig, SpanError

        try:
            span_config = SpanConfig.parse(args.spans)
        except SpanError as exc:
            return runlog.error(f"bad --spans spec: {exc}")
        refusing = [eid for eid in ids
                    if not REGISTRY[eid].accepts_spans]
        if refusing:
            return runlog.error(
                "experiment(s) do not accept a span config: "
                + " ".join(sorted(refusing)))
    resilience = None
    if args.resilience is not None:
        from ..cluster.resilience import parse_policy
        from ..errors import ClusterError

        try:
            resilience = parse_policy(args.resilience)
        except ClusterError as exc:
            return runlog.error(f"bad --resilience spec: {exc}")
        if not resilience.active:
            return runlog.error(
                "bad --resilience spec: the policy is inactive "
                "(every knob is zero); drop the flag instead")
        refusing = [eid for eid in ids
                    if not REGISTRY[eid].accepts_resilience]
        if refusing:
            return runlog.error(
                "experiment(s) do not accept a resilience policy: "
                + " ".join(sorted(refusing)))
    save_dir = None
    if args.save:
        from pathlib import Path

        save_dir = Path(args.save)
        save_dir.mkdir(parents=True, exist_ok=True)
    profile_dir = None
    if args.profile or args.cprofile:
        from pathlib import Path

        profile_dir = Path(args.profile or "results")
    profiler = Profiler(enabled=profile_dir is not None,
                        cprofile_top=args.cprofile)

    from ..resilience import SupervisionPolicy

    policy = SupervisionPolicy(
        timeout_s=args.unit_timeout, retries=args.retries,
        seed=getattr(fault_plan, "seed", None) or 0,
        fail_fast=args.fail_fast)

    started_at = utc_timestamp()
    hooks = RunHooks(None if args.no_progress else len(ids),
                     runlog=runlog)
    if args.jobs > 1:
        from ..parallel import effective_cpu_count

        cpus = effective_cpu_count()
        if args.jobs > cpus:
            # Workers beyond the usable cores would only fight for them,
            # so _run_ids caps the pool; say so up front.
            runlog.warn("jobs-oversubscribed", jobs=args.jobs,
                        cpus=cpus)
            hooks.note(f"note: --jobs {args.jobs} exceeds the "
                       f"{cpus} CPU(s) available to this process; "
                       f"capping the worker count at {cpus}")
    runlog.info("run-start", ids=" ".join(ids), jobs=args.jobs,
                full=args.full, cache=not args.no_cache,
                faults=args.faults, spans=args.spans,
                resilience=args.resilience,
                resume=args.resume)
    start = time.perf_counter()
    control = _SweepControl()
    previous_handlers = {}

    def _on_signal(signum, frame):
        control.drain()
        # A second signal falls through to the default (fatal) action:
        # the graceful drain must never trap an operator who wants out.
        try:
            signal.signal(signal.SIGINT, signal.default_int_handler)
            signal.signal(signal.SIGTERM, signal.SIG_DFL)
        except (ValueError, OSError):
            pass

    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            previous_handlers[signum] = signal.signal(signum,
                                                      _on_signal)
        except (ValueError, OSError):
            pass                   # not the main thread: no handlers
    try:
        results, failures, interrupted, journal = _run_ids(
            ids, fast=not args.full, jobs=args.jobs,
            use_cache=not args.no_cache, fault_plan=fault_plan,
            span_config=span_config, resilience=resilience,
            hooks=hooks, profiler=profiler, policy=policy,
            resume=args.resume, checkpoint=not args.no_checkpoint,
            control=control)
    finally:
        for signum, handler in previous_handlers.items():
            try:
                signal.signal(signum, handler)
            except (ValueError, OSError):
                pass
        hooks.close()
    wall_s = time.perf_counter() - start
    ledger_fields = dict(
        tool="repro-experiments", argv=argv, ids=ids,
        started_at=started_at, wall_s=wall_s,
        config={"fast": not args.full, "jobs": args.jobs,
                "cache": not args.no_cache},
        fault_plan_config=fault_plan.to_dict()
        if fault_plan is not None else None,
        seed=getattr(fault_plan, "seed", None),
        cache_hits=hooks.cache_hits, cache_misses=hooks.cache_misses,
        verdicts=hooks.verdicts(results),
        resilience=hooks.resilience_record(interrupted=interrupted))

    if interrupted:
        # Nothing lands on stdout: a partial suite must never pass for
        # a complete one.  Completed units live in the journal.
        hint_argv = [a for a in (list(argv) if argv is not None
                                 else sys.argv[1:]) if a != "--resume"]
        hint = "repro-experiments " + " ".join(hint_argv + ["--resume"])
        runlog.warn("interrupted", completed=len(results),
                    total=len(ids),
                    journal=str(journal.path) if journal is not None
                    else None,
                    resume=hint)
        if not args.no_ledger:
            append_run(runlog, exit_code=EXIT_INTERRUPTED,
                       **ledger_fields)
        runlog.info("run-end", wall_s=wall_s, exit_code=EXIT_INTERRUPTED)
        return EXIT_INTERRUPTED

    failed = 0
    spans_ledger = None
    if span_config is not None:
        from ..telemetry.spans import spans_digest

        spans_ledger = spans_digest(
            {eid: result.spans for eid, result in results
             if result.spans})
    with profiler.phase("render+save"):
        for eid, result in results:
            print(result.render())
            print()
            if save_dir is not None:
                (save_dir / f"{eid}.txt").write_text(
                    result.render() + "\n")
                write_json(save_dir / f"{eid}.json", result.to_dict())
                if result.spans:
                    from ..telemetry.spans import perfetto_spans_trace

                    write_json(save_dir / f"{eid}.spans.json",
                               result.spans)
                    write_json(save_dir / f"{eid}.spans.trace.json",
                               perfetto_spans_trace(
                                   result.spans.get("points", {}),
                                   process_name=f"repro-spans:{eid}"))
            if not result.passed:
                failed += 1
        if save_dir is not None:
            for eid, failure in failures.items():
                write_json(save_dir / f"{eid}.failed.json",
                           failure.to_dict())
    if failed:
        print(f"{failed} experiment(s) had failing shape checks")
    if failures:
        print(f"{len(failures)} experiment(s) failed to produce "
              f"a result:")
        for eid in sorted(failures):
            print(f"  {failures[eid]}")
    exit_code = EXIT_FAILED_CHECKS if failed or failures else EXIT_OK
    if journal is not None and not failures:
        # A fully-landed sweep has nothing to resume; a sweep with
        # poisoned units keeps its journal so --resume (after the
        # cause is fixed) reruns only what is missing.
        journal.discard()

    if profile_dir is not None:
        from ..obs.profiler import write_experiment_profile

        for eid, result in results:
            write_experiment_profile(
                profile_dir, eid,
                wall_s=hooks.unit_wall.get(eid),
                cached=eid in hooks.cache_hits,
                passed=result.passed)
        suite_path = profiler.write(
            profile_dir / "suite.profile.json",
            extra={"ids": ids, "jobs": args.jobs,
                   "wall_s": round(wall_s, 6)})
        runlog.info("profile-written", path=str(suite_path),
                    experiments=len(results))
    if not args.no_ledger:
        append_run(runlog, exit_code=exit_code, spans=spans_ledger,
                   **ledger_fields)
    runlog.info("run-end", wall_s=wall_s, failed=failed,
                unit_failures=len(failures),
                resumed=len(hooks.resumed),
                cache_hits=len(hooks.cache_hits),
                cache_misses=len(hooks.cache_misses),
                exit_code=exit_code)
    if failed:
        runlog.error(f"{failed} experiment(s) had failing shape checks",
                     code=EXIT_FAILED_CHECKS)
    if failures:
        runlog.error(
            f"{len(failures)} experiment(s) failed to produce a result",
            code=EXIT_FAILED_CHECKS)
    return exit_code


if __name__ == "__main__":
    sys.exit(main())
