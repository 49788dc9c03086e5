"""Page migration executors: CPU copies vs DSA offload.

§6: "Use Intel DSA for bulk memory movement from/to CXL memory ... This
is especially useful in a tiered memory system, where data movement
often happens in page granularity (i.e., 4KB or 2MB)."  The migrator
lets the simulator charge a realistic time cost to each epoch's plan
under either engine, making that recommendation measurable.
"""

from __future__ import annotations

import enum

from ..cpu.system import MemoryScheme, System
from ..dsa.device import DsaDevice, SubmissionMode
from ..errors import WorkloadError
from ..perfmodel.throughput import ThroughputModel
from ..units import PAGE_4K, SEC
from .policy import MigrationPlan


class MigrationEngine(enum.Enum):
    """Who moves the pages."""

    CPU_MEMCPY = "memcpy"
    CPU_MOVDIR = "movdir64B"
    DSA_ASYNC = "dsa-async"


class PageMigrator:
    """Charges wall-clock time (and CPU time) for migration plans."""

    def __init__(self, system: System, *,
                 engine: MigrationEngine = MigrationEngine.DSA_ASYNC,
                 page_bytes: int = PAGE_4K,
                 dsa_batch: int = 128) -> None:
        if page_bytes <= 0:
            raise WorkloadError("page size must be positive")
        self.system = system
        self.engine = engine
        self.page_bytes = page_bytes
        self.dsa_batch = dsa_batch
        self._model = ThroughputModel(system)
        self._dsa = DsaDevice(system)

    def _rate(self, src: MemoryScheme, dst: MemoryScheme) -> float:
        """Sustained migration bandwidth (B/s) for one direction."""
        if self.engine is MigrationEngine.CPU_MEMCPY:
            return self._model.memcpy_bandwidth(src, dst).app_bandwidth
        if self.engine is MigrationEngine.CPU_MOVDIR:
            return self._model.copy_bandwidth(src, dst).app_bandwidth
        return self._dsa.copy_throughput(src, dst,
                                         mode=SubmissionMode.ASYNC,
                                         batch_size=self.dsa_batch,
                                         transfer_bytes=self.page_bytes)

    def migration_time_ns(self, plan: MigrationPlan) -> float:
        """Time to execute a plan (promotions + demotions, serialized).

        Promotions read CXL / write DRAM (C2D); demotions the reverse.
        """
        promote_bytes = plan.promote.size * self.page_bytes
        demote_bytes = plan.demote.size * self.page_bytes
        total = 0.0
        if promote_bytes:
            total += promote_bytes / self._rate(
                MemoryScheme.CXL, MemoryScheme.DDR5_L8) * SEC
        if demote_bytes:
            total += demote_bytes / self._rate(
                MemoryScheme.DDR5_L8, MemoryScheme.CXL) * SEC
        return total

    def cpu_busy_fraction(self) -> float:
        """Share of one core the migration engine occupies while moving.

        DSA offload frees the CPU (§6); instruction-based copies burn a
        full hardware thread.
        """
        return 0.05 if self.engine is MigrationEngine.DSA_ASYNC else 1.0
