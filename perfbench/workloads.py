"""The benchmark's five workloads, as lists of operations.

An operation runs one public entry point of the simulator and returns
``(payload, checks)``: a JSON-able payload whose digest pins the
simulated output, and the list of shape-check verdicts it produced.
Host time is what the benchmark measures; the payload is simulated
output, which a performance change must leave byte-identical.

Each workload is a batch job: one process runs its operations in
order, with no arrival schedule.  Only ``suite-jobs`` forks workers.

Imported only inside a pass's child process, after ``src/`` is on
``sys.path``.
"""

from __future__ import annotations

import io
from contextlib import redirect_stdout
from dataclasses import asdict, dataclass
from typing import Callable

from repro import build_system, combined_testbed
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.experiments import REGISTRY, figc_cluster, figr_resilience
from repro.experiments import runner as experiments_runner
from repro.telemetry.spans import SpanConfig
from repro.validate import cross_validate

PINNED_SEED = 7        # figc_cluster.SEED and figr_resilience.SEED at HEAD

PAPER_IDS = ("table1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7",
             "fig8", "fig9", "fig10")
POLICY_FREE_SCENARIOS = (
    "scn-asic-vs-fpga", "scn-bursty-traffic", "scn-degraded-link",
    "scn-diurnal-cycle", "scn-fault-severity", "scn-fleet-scaling",
    "scn-hetero-pool", "scn-least-loaded-routing", "scn-pool-share-sweep",
    "scn-steady-baseline", "scn-write-heavy")
POLICY_IDS = ("cluster-retry-storm", "cluster-resilient",
              "scn-hedged-degraded-link")
# The fast suite minus its seven ids that take over 0.5 s each (fig6,
# fig7, fig10, cluster-pooling, cluster-resilient, cluster-retry-storm,
# ext-tiering): the harness cost scales with the number of units, not
# their size.  degraded-cxl and cluster-degraded keep the sharded wave.
SUITE_IDS = ("table1", "fig2", "fig3", "fig4", "fig5", "fig8", "fig9",
             "degraded-cxl", "cluster-degraded", "ext-loaded-latency",
             "ext-nearmem", "ext-pooling", "scn-asic-vs-fpga",
             "scn-bursty-traffic", "scn-degraded-link", "scn-diurnal-cycle",
             "scn-fault-severity", "scn-fleet-scaling",
             "scn-hedged-degraded-link", "scn-hetero-pool",
             "scn-least-loaded-routing", "scn-pool-share-sweep",
             "scn-steady-baseline", "scn-write-heavy")
SMOKE_SUITE_IDS = ("table1", "fig3")
SEEDED_IDS = frozenset({"cluster-pooling", "cluster-degraded",
                        "cluster-retry-storm", "cluster-resilient"})

READ_THREADS = (1, 2, 4, 8, 12, 16, 32)
WRITE_THREADS = (1, 2, 4, 8, 16)
LINES_PER_THREAD = 2000
SMOKE_LINES_PER_THREAD = 20

SERIAL_IDS = {"paper-figs": PAPER_IDS,
              "cxl-stack": ("degraded-cxl",),
              "cluster-pool": ("cluster-pooling", "cluster-degraded")
              + POLICY_FREE_SCENARIOS,
              "cluster-policy": POLICY_IDS}


@dataclass(frozen=True)
class Op:
    """One operation: ``run()`` returns ``(payload, checks)``."""

    name: str
    run: Callable[[], tuple[object, list[bool]]]
    seeded: bool = False          # the payload depends on --seed


def set_seed(seed: int) -> None:
    """Seed the cluster experiments' traffic (the paper figures and the
    CXL stack use fixed configurations and ignore it).  Forked workers
    inherit the value."""
    figc_cluster.SEED = seed
    figr_resilience.SEED = seed


def _experiment(eid: str, *, spans: bool = False) -> Op:
    def run():
        kwargs = {"span_config": SpanConfig()} if spans else {}
        result = REGISTRY[eid].run(fast=True, **kwargs)
        return ({"result": result.to_dict(), "rendered": result.render()},
                [check.passed for check in result.checks])
    return Op(eid, run, seeded=eid in SEEDED_IDS)


def _validate() -> Op:
    def run():
        checks = cross_validate(build_system(combined_testbed()))
        return ([[c.claim, c.passed, c.measured] for c in checks],
                [c.passed for c in checks])
    return Op("cross-validate", run)


def _sweep(name: str, sim_cls, threads: tuple, lines: int) -> Op:
    def run():
        results = sim_cls().sweep(list(threads), lines_per_thread=lines)
        return {str(t): asdict(r) for t, r in results.items()}, []
    return Op(name, run)


def _suite(ids: tuple, jobs: int, *, cache: bool = True) -> Op:
    """One ``repro-experiments --jobs N`` pass, stdout captured.

    The payload is the stdout alone, so the ``--jobs 2`` digest must
    equal the serial one pinned by ``run.py --pin``.  The result cache
    starts empty in every pass (run.py gives each its own directory).
    """
    argv = ["--jobs", str(jobs), "--no-progress", *ids]
    if not cache:
        argv.insert(0, "--no-cache")

    def run():
        out = io.StringIO()
        with redirect_stdout(out):
            code = experiments_runner.main(argv)
        return {"stdout": out.getvalue()}, [code == 0]
    return Op("suite", run, seeded=True)


def serial_suite(*, smoke: bool) -> Op:
    """The serial ``--no-cache`` twin of the ``suite-jobs`` pass."""
    return _suite(SMOKE_SUITE_IDS if smoke else SUITE_IDS, 1, cache=False)


def operations(workload: str, *, smoke: bool, jobs: int,
               spans: bool = True) -> list[Op]:
    """The operations of one pass of ``workload``.

    ``smoke`` swaps in tiny sizes that still reach the same layers;
    ``jobs`` is the worker count of ``suite-jobs`` (1 when pinning);
    ``spans=False`` turns off span recording in ``cluster-policy`` (the
    traced pass times both to report ``spans.overhead_ratio``).
    """
    if workload == "paper-figs":
        ids = ("table1", "fig3") if smoke else PAPER_IDS
        return [_experiment(eid) for eid in ids]
    if workload == "cxl-stack":
        lines = SMOKE_LINES_PER_THREAD if smoke else LINES_PER_THREAD
        ops = [] if smoke else [_experiment("degraded-cxl"), _validate()]
        return ops + [
            _sweep("read-sweep", CxlEndToEndSim, READ_THREADS, lines),
            _sweep("write-sweep", CxlWriteEndToEndSim, WRITE_THREADS,
                   lines)]
    if workload == "cluster-pool":
        ids = ("scn-steady-baseline",) if smoke \
            else SERIAL_IDS["cluster-pool"]
        return [_experiment(eid) for eid in ids]
    if workload == "cluster-policy":
        ids = ("scn-hedged-degraded-link",) if smoke else POLICY_IDS
        return [_experiment(eid, spans=spans) for eid in ids]
    if workload == "suite-jobs":
        return [_suite(SMOKE_SUITE_IDS if smoke else SUITE_IDS, jobs)]
    raise ValueError(f"unknown workload {workload!r}")
