"""Memory tiering on DRAM + CXL — the paper's motivating use case.

§5 frames the weighted-interleave results as "a baseline for most memory
tiering policies ... the proposed optimization should, at the very
least, perform equally well when compared against a weighted round-robin
allocation strategy", and §6 recommends DSA for the page-granularity
movement tiering performs.  This package makes those statements
executable:

* :class:`~repro.tiering.tracker.HotnessTracker` — per-page access
  counting with epoch decay (TPP-style active/inactive detection);
* :mod:`~repro.tiering.policy` — promotion/demotion policies plus the
  static weighted-interleave baseline;
* :class:`~repro.tiering.migrator.PageMigrator` — migration executed by
  CPU copies or batched asynchronous DSA offload;
* :class:`~repro.tiering.simulator.TieringSimulator` — an epoch-driven
  workload with a shifting hot set, measuring average access latency
  including migration overhead.
"""

from .tracker import HotnessTracker
from .policy import (
    NoMigration,
    TieringPolicy,
    TppLikePolicy,
)
from .migrator import MigrationEngine, PageMigrator
from .simulator import EpochStats, TieringSimulator

__all__ = [
    "HotnessTracker",
    "TieringPolicy",
    "TppLikePolicy",
    "NoMigration",
    "PageMigrator",
    "MigrationEngine",
    "TieringSimulator",
    "EpochStats",
]
