"""The embedding-reduction kernel: latency-bound slope, bandwidth-bound cap.

Per-thread, one inference gathers ``lookups_per_inference`` rows with
modest memory-level parallelism (independent gathers overlap, but index
computation and pooling arithmetic serialize batches), then runs the
dense interaction/MLP compute.  Aggregate throughput is::

    min(threads / service_time,  device_random_bandwidth / bytes_moved)

which yields exactly the Fig 8/9 shapes: a linear region whose slope is
set by memory latency (CXL ~ DDR5-R1, both below DDR5-L8) and a plateau
set by channel count (SNC's two channels bind around 24 threads; eight
channels never bind through 32).
"""

from __future__ import annotations

from ...cpu.system import System
from ...errors import WorkloadError
from ...mem.dram import AccessPattern
from ...topology.numa import MemoryKind
from .embedding import EmbeddingTables

LOOKUPS_PER_INFERENCE = 256
"""Multi-hot lookups pooled per inference (MERCI-scale)."""

GATHER_MLP = 4.0
"""Concurrent outstanding gathers one thread sustains."""

DENSE_COMPUTE_NS = 50_000.0
"""Bottom/top MLP + feature interaction per inference, per thread."""


class ReductionKernel:
    """Throughput model for one table placement."""

    def __init__(self, tables: EmbeddingTables, *,
                 lookups_per_inference: int = LOOKUPS_PER_INFERENCE,
                 dense_compute_ns: float = DENSE_COMPUTE_NS) -> None:
        if lookups_per_inference <= 0:
            raise WorkloadError("lookups per inference must be positive")
        self.tables = tables
        self.system: System = tables.system
        self.lookups = lookups_per_inference
        self.dense_compute_ns = dense_compute_ns

    @property
    def bytes_per_inference(self) -> int:
        return self.lookups * self.tables.lines_per_lookup * 64

    def service_ns_per_inference(self) -> float:
        """Single-thread inference time (latency-bound regime)."""
        gather_rounds = self.lookups / GATHER_MLP
        return (self.dense_compute_ns
                + gather_rounds * self.tables.average_lookup_latency_ns())

    def per_thread_rate(self) -> float:
        """Inferences per second for one thread."""
        return 1e9 / self.service_ns_per_inference()

    def bandwidth_bound(self, threads: int) -> float:
        """Max inferences/s the memory devices allow.

        Each node serves its share of lookups; the binding node is the
        one whose random-access bandwidth divided by its traffic share
        is smallest.
        """
        if threads <= 0:
            raise WorkloadError(f"threads must be positive: {threads}")
        block = self.tables.row_bytes
        bound = float("inf")
        for node_id, share in self.tables.node_fractions().items():
            if share <= 0:
                continue
            backend = self.system.backend_for_node(node_id)
            node = self.system.topology.node(node_id)
            streams = threads if node.kind is MemoryKind.CXL else threads
            bandwidth = backend.bus_ceiling(AccessPattern.RANDOM_BLOCK,
                                            block, streams=streams)
            bandwidth *= backend.concurrency_derate(readers=streams,
                                                    writers=0)
            bound = min(bound, bandwidth / (share * self.bytes_per_inference))
        return bound

    def throughput(self, threads: int) -> float:
        """Aggregate inferences/s at ``threads`` threads (Fig 8 left)."""
        demand = threads * self.per_thread_rate()
        return min(demand, self.bandwidth_bound(threads))

    def is_bandwidth_bound(self, threads: int) -> bool:
        """§6.1's classification test at a given thread count."""
        return self.bandwidth_bound(threads) < threads * self.per_thread_rate()
