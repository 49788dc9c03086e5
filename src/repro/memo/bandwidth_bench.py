"""Sequential-access bandwidth sweeps (Fig 3).

§4.3: "MEMO performs blocks of sequential or random access within each
testing thread.  The main program calculates the average bandwidth for a
fixed interval by summing the number of bytes accessed."

One panel per memory scheme (Fig 3a = DDR5-L8, 3b = CXL, 3c = DDR5-R1),
three curves per panel (load / store / nt-store), thread counts on x.
"""

from __future__ import annotations

from ..cpu.isa import AccessKind
from ..cpu.system import MemoryScheme, System
from ..analysis.series import Series
from ..errors import ConfigError
from ..perfmodel.throughput import ThroughputModel
from ..units import ddr_peak_bandwidth
from .report import BenchReport

SWEEP_KINDS = (AccessKind.LOAD, AccessKind.STORE, AccessKind.NT_STORE)
DEFAULT_THREADS = [1, 2, 4, 8, 12, 16, 20, 24, 26, 28, 32]


class SequentialBandwidthBench:
    """Thread-count sweeps of sequential AVX-512 bandwidth."""

    def __init__(self, system: System, *,
                 thread_counts: list[int] | None = None,
                 schemes: list[MemoryScheme] | None = None) -> None:
        self.system = system
        if thread_counts is None:
            thread_counts = [n for n in DEFAULT_THREADS
                             if n <= system.socket.config.cores]
        if not thread_counts:
            raise ConfigError("no usable thread counts")
        self.thread_counts = thread_counts
        self.schemes = schemes or system.available_schemes()
        self.model = ThroughputModel(system)

    def run(self) -> BenchReport:
        report = BenchReport(title="MEMO sequential bandwidth")
        for scheme in self.schemes:
            for kind in SWEEP_KINDS:
                series = Series(kind.value, x_label="threads",
                                y_label="GB/s")
                for threads in self.thread_counts:
                    series.append(float(threads), self.model.bandwidth(
                        scheme, kind, threads=threads).gb_per_s)
                report.add_series(f"fig3-{scheme.label}", series)
        if MemoryScheme.CXL in self.schemes:
            # The grey dashed line in Fig 3b.
            theoretical = ddr_peak_bandwidth(
                self.system.config.cxl.dram.transfer_mt_s) / 1e9
            report.notes.append(
                f"CXL DDR4 theoretical max: {theoretical:.1f} GB/s")
        return report

    def peak(self, scheme: MemoryScheme, kind: AccessKind
             ) -> tuple[int, float]:
        """(threads, GB/s) at the scheme/kind peak across the sweep."""
        best_threads, best_bw = 0, 0.0
        for threads in self.thread_counts:
            bw = self.model.bandwidth(scheme, kind,
                                      threads=threads).gb_per_s
            if bw > best_bw:
                best_threads, best_bw = threads, bw
        return best_threads, best_bw
