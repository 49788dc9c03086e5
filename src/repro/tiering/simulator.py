"""The epoch-driven tiering simulator.

Workload: a Zipfian page-access stream whose hot set *shifts* every
``shift_every`` epochs (datacenter working sets drift).  The dataset is
bigger than DRAM, so some pages must live on CXL; what varies is which
ones.

Each epoch the simulator (1) draws accesses and charges each the read
path of the page's current tier, (2) feeds the tracker, (3) asks the
policy for a plan, (4) charges the migrator's time, and (5) applies the
moves.  The figure of merit is effective average access latency
including amortized migration cost — exactly the trade a TPP-like
kernel policy navigates, with the paper's weighted interleave as the
baseline that any policy "should, at the very least, perform equally
well" against (§5).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..analysis.series import Series
from ..cpu.system import System
from ..errors import WorkloadError
from ..sim.rng import substream
from ..workloads.distributions import ZipfianKeys
from .migrator import PageMigrator
from .policy import TieringPolicy
from .tracker import HotnessTracker


@dataclass(frozen=True)
class EpochStats:
    """One epoch's outcome."""

    epoch: int
    avg_access_ns: float          # memory time per access, placement only
    migrated_pages: int
    migration_ns: float
    effective_ns: float           # avg access + amortized migration

    @property
    def dram_hit_fraction(self) -> float | None:
        return None               # reported at simulator level


class TieringSimulator:
    """Runs a policy against the shifting-hot-set workload."""

    def __init__(self, system: System, *, num_pages: int = 8192,
                 dram_capacity_pages: int = 2048,
                 accesses_per_epoch: int = 50_000,
                 shift_every: int = 8, seed: int = 11) -> None:
        if dram_capacity_pages >= num_pages:
            raise WorkloadError(
                "dataset must exceed DRAM capacity or tiering is moot")
        if accesses_per_epoch <= 0 or shift_every <= 0:
            raise WorkloadError("epoch parameters must be positive")
        self.system = system
        self.num_pages = num_pages
        self.dram_capacity_pages = dram_capacity_pages
        self.accesses_per_epoch = accesses_per_epoch
        self.shift_every = shift_every
        self.seed = seed
        self._dram_ns = (system.edge_ns()
                         + system.backend_for_node(
                             system.LOCAL_NODE).idle_read_ns())
        self._cxl_ns = (system.edge_ns()
                        + system.backend_for_node(
                            system.cxl_node_id).idle_read_ns())

    # -- workload ----------------------------------------------------------

    def _epoch_pages(self, epoch: int, rng: np.random.Generator,
                     zipf: ZipfianKeys) -> np.ndarray:
        """Zipfian page stream, rotated by the current hot-set shift."""
        ranks = zipf.ranks(rng.random(self.accesses_per_epoch))
        ranks = np.minimum(ranks, self.num_pages - 1)
        shift = (epoch // self.shift_every) * (self.num_pages // 7)
        return (ranks + shift) % self.num_pages

    def initial_placement(self) -> np.ndarray:
        """Weighted-interleave start: DRAM-share of pages, round-robin.

        The mask mirrors the N:M policy with N:M = capacity ratio, i.e.
        what ``numactl`` weighted interleave would produce.
        """
        on_dram = np.zeros(self.num_pages, dtype=bool)
        stride = self.num_pages / self.dram_capacity_pages
        indices = (np.arange(self.dram_capacity_pages) * stride).astype(int)
        on_dram[np.unique(indices)] = True
        return on_dram

    # -- main loop ----------------------------------------------------------

    def run(self, policy: TieringPolicy, migrator: PageMigrator, *,
            epochs: int = 24) -> list[EpochStats]:
        if epochs <= 0:
            raise WorkloadError("epochs must be positive")
        rng = substream(f"tiering-{self.seed}", self.seed)
        tracker = HotnessTracker(self.num_pages)
        on_dram = self.initial_placement()
        zipf = ZipfianKeys(self.num_pages)
        stats: list[EpochStats] = []
        for epoch in range(epochs):
            pages = self._epoch_pages(epoch, rng, zipf)
            hits = on_dram[pages]
            avg_ns = float(np.where(hits, self._dram_ns,
                                    self._cxl_ns).mean())
            tracker.record_accesses(pages)
            tracker.end_epoch()

            plan = policy.plan(tracker, on_dram,
                               self.dram_capacity_pages)
            migration_ns = migrator.migration_time_ns(plan)
            on_dram[plan.demote] = False
            on_dram[plan.promote] = True
            if int(on_dram.sum()) > self.dram_capacity_pages:
                raise WorkloadError(
                    "policy overflowed DRAM capacity — bad plan")

            effective = avg_ns + migration_ns / self.accesses_per_epoch
            stats.append(EpochStats(epoch=epoch, avg_access_ns=avg_ns,
                                    migrated_pages=plan.total_pages,
                                    migration_ns=migration_ns,
                                    effective_ns=effective))
        return stats

    # -- reporting -------------------------------------------------------------

    @staticmethod
    def latency_series(stats: list[EpochStats], name: str) -> Series:
        series = Series(name, x_label="epoch",
                        y_label="effective ns/access")
        for stat in stats:
            series.append(float(stat.epoch), stat.effective_ns)
        return series

    @staticmethod
    def steady_state_ns(stats: list[EpochStats],
                        skip: int = 4) -> float:
        """Mean effective latency after the warm-up epochs."""
        tail = stats[skip:]
        if not tail:
            raise WorkloadError("not enough epochs after warm-up")
        return sum(s.effective_ns for s in tail) / len(tail)
