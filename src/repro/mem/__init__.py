"""Device-side memory models: DRAM timing, banks, and backends.

This package answers device-side questions only — what latency and
sustained bandwidth the DIMMs and their controller can deliver for a given
traffic mix.  End-to-end numbers (adding core, cache, and interconnect
effects) are composed by :mod:`repro.perfmodel`.
"""

from .bandwidth import queueing_inflation, row_locality_efficiency
from .dram import AccessPattern, DramDevice
from .device import MemoryBackend
from .banks import Bank, DdrTimings, ddr4_2666_timings, ddr5_4800_timings
from .dram_sim import ChannelSimResult, DramChannelSim

__all__ = [
    "AccessPattern",
    "DramDevice",
    "MemoryBackend",
    "queueing_inflation",
    "row_locality_efficiency",
    "Bank",
    "DdrTimings",
    "ddr4_2666_timings",
    "ddr5_4800_timings",
    "DramChannelSim",
    "ChannelSimResult",
]
