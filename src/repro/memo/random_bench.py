"""Random block-access bandwidth (Fig 5).

§4.3.2: "we issue a block of AVX-512 access sequentially, but each time
with a random offset ... To ensure write order in block level, we issue
a sfence after each block of nt-store."

The figure is a 3x3 grid — rows: DDR5-L8 / CXL / DDR5-R1; columns:
load / store / nt-store — with block size on x and one curve per thread
count.
"""

from __future__ import annotations

from ..cpu.isa import AccessKind
from ..cpu.system import MemoryScheme, System
from ..analysis.series import Series
from ..errors import ConfigError
from ..mem.dram import AccessPattern
from ..perfmodel.throughput import ThroughputModel
from ..units import KIB
from .report import BenchReport

GRID_KINDS = (AccessKind.LOAD, AccessKind.STORE, AccessKind.NT_STORE)
DEFAULT_BLOCKS = [1 * KIB, 2 * KIB, 4 * KIB, 8 * KIB, 16 * KIB, 32 * KIB,
                  64 * KIB, 128 * KIB]
DEFAULT_THREADS = [1, 2, 4, 8, 16, 32]


class RandomBlockBench:
    """Block-size x thread-count sweeps of random block access."""

    def __init__(self, system: System, *,
                 block_sizes: list[int] | None = None,
                 thread_counts: list[int] | None = None,
                 schemes: list[MemoryScheme] | None = None) -> None:
        self.system = system
        self.block_sizes = block_sizes or DEFAULT_BLOCKS
        if any(b < 64 for b in self.block_sizes):
            raise ConfigError("blocks must be at least one cacheline")
        self.thread_counts = thread_counts or [
            n for n in DEFAULT_THREADS if n <= system.socket.config.cores]
        self.schemes = schemes or system.available_schemes()
        self.model = ThroughputModel(system)

    def run(self) -> BenchReport:
        report = BenchReport(title="MEMO random block bandwidth")
        for scheme in self.schemes:
            for kind in GRID_KINDS:
                for threads in self.thread_counts:
                    series = Series(f"{threads}T", x_label="block (KiB)",
                                    y_label="GB/s")
                    for block in self.block_sizes:
                        series.append(block / KIB, self.point(
                            scheme, kind, threads=threads,
                            block_bytes=block))
                    report.add_series(f"fig5-{scheme.label}-{kind.value}",
                                      series)
        return report

    def point(self, scheme: MemoryScheme, kind: AccessKind, *,
              threads: int, block_bytes: int) -> float:
        """One grid cell in GB/s."""
        return self.model.bandwidth(scheme, kind,
                                    AccessPattern.RANDOM_BLOCK,
                                    threads=threads,
                                    block_bytes=block_bytes).gb_per_s
