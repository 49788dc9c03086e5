"""Intel Data Streaming Accelerator (DSA) model.

§4.3.1: "Intel DSA is comprised of work queues (WQs) to hold offloaded
work descriptors, and processing engines (PEs) to pull descriptors from
the WQs to operate on.  Descriptors can be sent synchronously ... or
asynchronously ... To further improve throughput, operations can be
batched to amortize the offload latency."

The model reproduces Fig. 4b's structure: per-offload latency that
batching amortizes, a submission pipeline that asynchrony fills, and
per-direction memory ceilings that make C2D faster than D2C and C2C the
slowest.
"""

from .descriptor import BatchDescriptor, Descriptor, DsaOpcode
from .engine import ProcessingEngine
from .device import DsaDevice, SubmissionMode

__all__ = [
    "DsaOpcode",
    "Descriptor",
    "BatchDescriptor",
    "ProcessingEngine",
    "DsaDevice",
    "SubmissionMode",
]
