"""Functional traffic measurement: counting what really hits the bus.

The analytic model *asserts* traffic factors (a temporal store moves 2x
the bus lines of an nt-store because of RFO + writeback).  This module
*measures* them by streaming real access sequences through the
functional :class:`~repro.cache.hierarchy.CacheHierarchy` and counting
memory-side reads and writes — including the deferred writebacks that
only appear when dirty lines are evicted or flushed.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cache.hierarchy import CacheHierarchy
from ..cpu.isa import AccessKind
from ..errors import WorkloadError
from ..units import CACHELINE


@dataclass(frozen=True)
class TrafficCount:
    """Bus traffic observed for one access stream."""

    lines_accessed: int
    memory_reads: int
    memory_writes: int

    @property
    def reads_per_line(self) -> float:
        return self.memory_reads / self.lines_accessed

    @property
    def writes_per_line(self) -> float:
        return self.memory_writes / self.lines_accessed

    @property
    def traffic_factor(self) -> float:
        """Total bus lines per application line — the RFO number."""
        return (self.memory_reads + self.memory_writes) \
            / self.lines_accessed


def measure_stream_traffic(hierarchy: CacheHierarchy, kind: AccessKind,
                           num_lines: int, *,
                           base_address: int = 0,
                           flush_after: bool = True) -> TrafficCount:
    """Stream ``num_lines`` sequential accesses of ``kind``; count bus ops.

    ``flush_after`` drains dirty lines at the end (clflush), charging
    temporal stores their deferred writebacks — without it a short
    temporal-store stream looks artificially cheap because its dirty
    lines are still parked in the cache.
    """
    if num_lines <= 0:
        raise WorkloadError(f"num_lines must be positive: {num_lines}")
    reads = 0
    writes = 0
    writebacks_before = hierarchy.memory_writebacks
    for index in range(num_lines):
        address = base_address + index * CACHELINE
        if kind is AccessKind.LOAD:
            result = hierarchy.load(address)
        elif kind is AccessKind.STORE:
            result = hierarchy.store(address)
        elif kind is AccessKind.NT_STORE:
            result = hierarchy.nt_store(address)
        else:
            raise WorkloadError(
                f"movdir64B is a copy; measure its sides separately")
        reads += result.memory_reads
        writes += result.memory_writes
    if flush_after:
        for index in range(num_lines):
            writes += hierarchy.clflush(base_address + index * CACHELINE)
    # LLC dirty evictions during the stream also reached memory.
    writes += hierarchy.memory_writebacks - writebacks_before
    return TrafficCount(lines_accessed=num_lines, memory_reads=reads,
                        memory_writes=writes)
