"""Tiering policies: what to promote, what to demote, and when.

A policy inspects the tracker after each epoch and returns a migration
plan — page indices to promote (CXL → DRAM) and demote (DRAM → CXL).
The *do-nothing* policy is the paper's weighted-interleave baseline:
pages stay wherever the initial N:M policy placed them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import WorkloadError
from .tracker import HotnessTracker


@dataclass(frozen=True)
class MigrationPlan:
    """One epoch's promotions and demotions (page indices)."""

    promote: np.ndarray      # pages to move CXL -> DRAM
    demote: np.ndarray       # pages to move DRAM -> CXL

    @property
    def total_pages(self) -> int:
        return int(self.promote.size + self.demote.size)


class TieringPolicy:
    """Base policy: decide migrations from tracker + current placement."""

    def plan(self, tracker: HotnessTracker, on_dram: np.ndarray,
             dram_capacity_pages: int) -> MigrationPlan:
        """``on_dram`` is a boolean mask over pages (True = DRAM)."""
        raise NotImplementedError


class NoMigration(TieringPolicy):
    """The §5 baseline: static placement, never migrate."""

    def plan(self, tracker: HotnessTracker, on_dram: np.ndarray,
             dram_capacity_pages: int) -> MigrationPlan:
        empty = np.empty(0, dtype=np.int64)
        return MigrationPlan(promote=empty, demote=empty)


class TppLikePolicy(TieringPolicy):
    """Promotion/demotion in the spirit of TPP [24].

    Each epoch: promote the hottest CXL-resident pages (heat above
    ``promotion_threshold``), capped by ``max_migrations_per_epoch``;
    when DRAM would overflow, demote the coldest DRAM pages to make
    room (watermark-based reclaim).
    """

    def __init__(self, *, promotion_threshold: float = 2.0,
                 max_migrations_per_epoch: int = 1024) -> None:
        if promotion_threshold <= 0:
            raise WorkloadError("promotion threshold must be positive")
        if max_migrations_per_epoch <= 0:
            raise WorkloadError("migration cap must be positive")
        self.promotion_threshold = promotion_threshold
        self.max_migrations = max_migrations_per_epoch

    def plan(self, tracker: HotnessTracker, on_dram: np.ndarray,
             dram_capacity_pages: int) -> MigrationPlan:
        if on_dram.shape[0] != tracker.num_pages:
            raise WorkloadError("placement mask size mismatch")
        hot_order = tracker.hottest(tracker.num_pages)
        hot_cxl = hot_order[~on_dram[hot_order]]
        above = hot_cxl[tracker.heats(hot_cxl)
                        >= self.promotion_threshold]
        promote = np.asarray(above[:self.max_migrations], dtype=np.int64)

        dram_used = int(on_dram.sum())
        overflow = dram_used + promote.size - dram_capacity_pages
        if overflow > 0:
            dram_pages = np.flatnonzero(on_dram)
            demote = tracker.coldest_within(dram_pages, overflow)
        else:
            demote = np.empty(0, dtype=np.int64)
        return MigrationPlan(promote=promote,
                             demote=np.asarray(demote, dtype=np.int64))
