"""Crash-safe sweep execution: supervision, checkpoints, quarantine.

PR 3 made the *simulated* CXL device fault-tolerant — injected CRC,
poison, and timeout faults are always recovered by the modeled
controller (docs/FAULTS.md).  This package applies the same discipline
to the harness that produces the figures: a hung worker, a crashed
process, a corrupted cache entry, or a Ctrl-C must never throw away a
sweep's completed work.

* :mod:`repro.resilience.supervisor` — :class:`SupervisedRunner`, the
  failure-absorbing view of the one executor in
  :mod:`repro.parallel.runner`: per-unit wall-clock timeouts that kill
  the unit's worker (the pool forks a replacement), bounded retries
  with deterministic exponential backoff + jitter (seeded via
  :func:`~repro.parallel.runner.unit_seed`, so serial and ``--jobs N``
  runs retry identically), crash classification (``timeout`` /
  ``exception`` / ``killed``), and a poison-unit policy that records a
  structured :class:`UnitFailure` instead of aborting the sweep.
* :mod:`repro.resilience.checkpoint` — :class:`CheckpointJournal`, a
  ``results/.checkpoint/<suite-hash>.jsonl`` journal of completed unit
  results (content-addressed like the result cache).  SIGINT/SIGTERM
  drain gracefully, flush the journal, and print a ``--resume`` hint;
  ``repro-experiments --resume`` replays journaled units and runs only
  the remainder, byte-identical to an uninterrupted run.
* Cache quarantine lives in :mod:`repro.parallel.cache`: every entry
  carries a payload checksum, verified on read; corrupt or truncated
  entries move to ``results/.cache/quarantine/`` (with a ledger event)
  and are recomputed, never crashing the run.

See docs/RESILIENCE.md for the full contract.
"""

from __future__ import annotations

from .checkpoint import (
    CHECKPOINT_DIR_ENV,
    DEFAULT_CHECKPOINT_DIR,
    CheckpointJournal,
    checkpoint_dir,
    suite_hash,
)
from .supervisor import (
    FAILURE_KINDS,
    SupervisedRunner,
    SupervisionPolicy,
    UnitFailure,
    UnitOutcome,
)

__all__ = [
    "CHECKPOINT_DIR_ENV",
    "CheckpointJournal",
    "DEFAULT_CHECKPOINT_DIR",
    "FAILURE_KINDS",
    "SupervisedRunner",
    "SupervisionPolicy",
    "UnitFailure",
    "UnitOutcome",
    "checkpoint_dir",
    "suite_hash",
]
