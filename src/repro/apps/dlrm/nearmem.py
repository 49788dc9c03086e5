"""Near-memory embedding reduction on a programmable CXL device.

§6's final guideline: "Explore the potential of inline acceleration with
programmable CXL memory devices ... even though such acceleration may
add extra latency to data access, such overhead will not be visible from
an end-to-end point of view" — and §4.2 notes the FPGA's merit "to
offload memory-intensive tasks in a near-memory fashion".

The model: the host ships an index list (8 B per lookup), the device
gathers rows against its *local* DDR4 with deep on-chip parallelism and
returns only the pooled vector.  Three effects fall out:

* link traffic per inference collapses from ``lookups x row`` to
  ``indices + pooled vector`` (~28x less for the MERCI-scale kernel);
* the host thread only does dense compute + submission, so its
  latency-bound rate rises;
* the binding resource becomes the device's internal DRAM bandwidth —
  without the CXL flit framing overhead the host-gather path pays.
"""

from __future__ import annotations

from ...cpu.system import System
from ...errors import WorkloadError
from ...mem.dram import AccessPattern
from ...units import SEC
from .reduction import ReductionKernel

INDEX_BYTES = 8
"""Bytes per lookup index shipped to the device."""

DEVICE_GATHER_MLP = 16.0
"""Concurrent gathers the on-device engine sustains (no core LSQ limits)."""

ACCEL_LATENCY_NS = 3_000.0
"""Extra per-inference latency of the inline accelerator pipeline."""

SUBMIT_NS = 2_000.0
"""Host-side cost to enqueue one inference and collect its result."""


class NearMemoryReduction:
    """Embedding reduction executed inside the CXL device."""

    def __init__(self, kernel: ReductionKernel) -> None:
        tables = kernel.tables
        if tables.cxl_fraction() < 1.0:
            raise WorkloadError(
                "inline acceleration requires the tables to be resident "
                "on the CXL device")
        self.kernel = kernel
        self.tables = tables
        self.system: System = tables.system

    # -- traffic -------------------------------------------------------------

    def link_bytes_per_inference(self) -> int:
        """Wire payload: index list down, pooled vector back."""
        return (self.kernel.lookups * INDEX_BYTES
                + self.tables.row_bytes)

    def host_gather_link_bytes(self) -> int:
        """What the host-gather path ships per inference."""
        return self.kernel.bytes_per_inference

    def link_traffic_reduction(self) -> float:
        """How many times less link traffic the offload needs."""
        return self.host_gather_link_bytes() / self.link_bytes_per_inference()

    # -- latency / throughput ----------------------------------------------------

    def device_time_ns(self) -> float:
        """On-device execution of one inference (gather + pool)."""
        dram = self.system.cxl_backend().device.config
        gather_rounds = self.kernel.lookups / DEVICE_GATHER_MLP
        return ACCEL_LATENCY_NS + gather_rounds * dram.access_ns

    def host_service_ns(self) -> float:
        """Host-thread time per inference: dense compute + submission."""
        return self.kernel.dense_compute_ns + SUBMIT_NS

    def single_inference_latency_ns(self) -> float:
        """Unpipelined end-to-end latency (where the accel cost *is*
        visible)."""
        port = self.system.cxl_backend().port
        link = 2 * (port.phy.config.hop_latency_ns + port.pack_ns)
        return self.host_service_ns() + link + self.device_time_ns()

    def device_bound(self) -> float:
        """Max inferences/s the device's internal DRAM allows."""
        backend = self.system.cxl_backend()
        bandwidth = backend.device.sustained_bandwidth(
            AccessPattern.RANDOM_BLOCK, self.tables.row_bytes, streams=4)
        return bandwidth / self.kernel.bytes_per_inference

    def throughput(self, threads: int) -> float:
        """Pipelined aggregate inferences/s at ``threads`` host threads."""
        if threads <= 0:
            raise WorkloadError(f"threads must be positive: {threads}")
        host_demand = threads * SEC / self.host_service_ns()
        return min(host_demand, self.device_bound())

    # -- comparison ----------------------------------------------------------

    def speedup_over_host_gather(self, threads: int) -> float:
        """Throughput ratio vs the host pulling rows over CXL.mem."""
        return self.throughput(threads) / self.kernel.throughput(threads)

    def accel_latency_hidden(self, threads: int) -> bool:
        """§6's claim: the accel's extra latency is invisible end-to-end
        once the pipeline is throughput-bound."""
        with_accel = self.throughput(threads)
        # A hypothetical zero-latency accelerator changes nothing unless
        # the device time is the per-thread bottleneck.
        return with_accel >= self.kernel.throughput(threads)
