"""Run-level observability: ledger, logging, profiling, progress, reports.

:mod:`repro.telemetry` makes a single *simulation* observable (metrics
and simulated-time timelines); this package makes *runs* observable —
the layer a training/inference stack covers with run ledgers, wall-clock
profilers, and regression dashboards:

* :mod:`repro.obs.runlog` — :class:`RunLog`, leveled machine-parseable
  progress/error events on stderr, plus the shared CLI exit codes
  (bad args = 2, failed checks = 1);
* :mod:`repro.obs.ledger` — every ``repro-experiments`` and ``memo``
  invocation appends one structured JSONL record to
  ``results/runs.jsonl`` (command, config/fault hashes, cache
  hits/misses, git rev, per-experiment verdicts, wall seconds, metrics
  digest);
* :mod:`repro.obs.profiler` — ``--profile`` wraps a run in a
  deterministic-output wall-clock component profiler (per-phase /
  per-experiment seconds, optional cProfile top-N) written as
  ``<id>.profile.json``;
* :mod:`repro.obs.progress` — :class:`RunHooks`, the one recorder of
  a sweep's unit events: it stores each event once for the ledger and,
  unless ``--no-progress``, renders it as a live single-line stderr
  status (plain leveled logs when stderr is not a TTY); stdout stays
  byte-identical either way;
* :mod:`repro.obs.report` — the ``repro-report`` CLI: one deterministic
  Markdown/HTML dashboard over ``--save`` JSON, metrics snapshots, the
  run ledger, and ``BENCH_*.json`` trajectories, with ``--baseline``
  regression detection.

See docs/OBSERVABILITY.md.
"""

from __future__ import annotations

from .ledger import (
    DEFAULT_LEDGER_PATH,
    LEDGER_PATH_ENV,
    append_record,
    append_run,
    config_hash,
    describe_append_failure,
    figure_wall_history,
    git_rev,
    ledger_path,
    read_ledger,
    run_record,
    utc_timestamp,
)
from .profiler import Profiler
from .progress import RunHooks
from .runlog import (
    EXIT_BAD_ARGS,
    EXIT_FAILED_CHECKS,
    EXIT_INTERRUPTED,
    EXIT_OK,
    RunLog,
)

__all__ = [
    "DEFAULT_LEDGER_PATH",
    "EXIT_BAD_ARGS",
    "EXIT_FAILED_CHECKS",
    "EXIT_INTERRUPTED",
    "EXIT_OK",
    "LEDGER_PATH_ENV",
    "Profiler",
    "RunHooks",
    "RunLog",
    "append_record",
    "append_run",
    "config_hash",
    "describe_append_failure",
    "figure_wall_history",
    "git_rev",
    "ledger_path",
    "read_ledger",
    "run_record",
    "utc_timestamp",
]
