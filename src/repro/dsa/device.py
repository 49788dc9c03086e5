"""The composed DSA device: submission modes and throughput.

Timing model (matching the §4.3.1 description):

* **sync** — the submitter waits for each submission's completion
  record: one offload round trip (``OFFLOAD_LATENCY_NS``) plus engine
  service per submission, no overlap.
* **async** — submissions stream into the WQ; once the pipeline is full
  the engine is the bottleneck and the offload latency is hidden.  Each
  submission still pays the small doorbell cost on the CPU side.
* **batching** — one submission carries N descriptors, so the offload
  round trip (sync) or doorbell (async) is amortized over N operations.
"""

from __future__ import annotations

import enum

from ..cpu.system import MemoryScheme, System
from ..errors import DeviceError
from ..units import SEC
from .descriptor import BatchDescriptor, Descriptor, memmove
from .engine import ProcessingEngine

OFFLOAD_LATENCY_NS = 1900.0
"""Submit-to-completion-record round trip for an otherwise idle device."""

DOORBELL_NS = 120.0
"""CPU-side cost of one ENQCMD/MOVDIR64B submission."""


class SubmissionMode(enum.Enum):
    """How software drives the device (Fig. 4b's sync/async columns)."""

    SYNC = "sync"
    ASYNC = "async"


class DsaDevice:
    """One DSA instance: submissions feeding a processing engine."""

    def __init__(self, system: System) -> None:
        self.system = system
        self.engine = ProcessingEngine(system)

    def copy_throughput(self, src: MemoryScheme, dst: MemoryScheme, *,
                        mode: SubmissionMode, batch_size: int = 1,
                        transfer_bytes: int = 4096) -> float:
        """Sustained memmove throughput (application B/s).

        ``transfer_bytes`` is the per-descriptor size (the paper's tiered-
        memory use case moves 4 KiB or 2 MiB pages, §6); ``batch_size``
        descriptors ride in each submission.
        """
        if batch_size <= 0:
            raise DeviceError(f"batch size must be positive: {batch_size}")
        work = self._make_submission(src, dst, batch_size, transfer_bytes)
        service = self.engine.service_ns(work)
        bytes_per_submission = batch_size * transfer_bytes
        if mode is SubmissionMode.SYNC:
            period = OFFLOAD_LATENCY_NS + service
        else:
            # Pipelined: the engine is busy back-to-back; the CPU-side
            # doorbell only matters if it outpaces the engine.
            period = max(service, DOORBELL_NS)
        return bytes_per_submission / (period / SEC)

    def copy_latency_ns(self, src: MemoryScheme, dst: MemoryScheme, *,
                        transfer_bytes: int = 4096) -> float:
        """Latency of one synchronous unbatched offload."""
        descriptor = memmove(transfer_bytes, src, dst)
        return OFFLOAD_LATENCY_NS + self.engine.service_ns(descriptor)

    def _make_submission(self, src: MemoryScheme, dst: MemoryScheme,
                         batch_size: int,
                         transfer_bytes: int) -> Descriptor | BatchDescriptor:
        if batch_size == 1:
            return memmove(transfer_bytes, src, dst)
        return BatchDescriptor(tuple(
            memmove(transfer_bytes, src, dst) for _ in range(batch_size)))
