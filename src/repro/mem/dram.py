"""DRAM device model: access pattern classes and per-device efficiency."""

from __future__ import annotations

import enum

from ..config import DramConfig
from .bandwidth import row_locality_efficiency


class AccessPattern(enum.Enum):
    """How requests walk the address space (MEMO's workload classes, §4.1)."""

    SEQUENTIAL = "sequential"
    RANDOM_BLOCK = "random-block"
    POINTER_CHASE = "pointer-chase"


class DramDevice:
    """One DRAM subsystem behind a memory controller.

    Wraps a :class:`~repro.config.DramConfig` with the query the rest of
    the model needs: sustainable bandwidth for a given traffic shape
    (the unloaded access time is ``config.access_ns``).
    """

    def __init__(self, config: DramConfig) -> None:
        self.config = config

    @property
    def peak_bandwidth(self) -> float:
        """Theoretical peak across all channels, B/s."""
        return self.config.peak_bandwidth

    @property
    def channels(self) -> int:
        return self.config.channels

    def efficiency(self, pattern: AccessPattern, block_bytes: int,
                   streams: int, *, write_fraction: float = 0.0) -> float:
        """Fraction of peak the device sustains for this traffic shape.

        ``streams`` is the number of independent request streams hitting
        the device.  Sequential streams pay no mixing penalty — a real
        iMC's per-bank queues reorder them back into row hits — but
        random-block streams interleave over the channels
        (``streams / channels`` per scheduler) and lose row locality.
        ``write_fraction`` of the bus traffic additionally pays the
        device's write-turnaround penalty.
        """
        if streams <= 0:
            raise ValueError(f"streams must be positive: {streams}")
        if not 0.0 <= write_fraction <= 1.0:
            raise ValueError(f"write_fraction out of range: {write_fraction}")
        if pattern is AccessPattern.POINTER_CHASE:
            base = self.config.random_efficiency
        else:
            if pattern is AccessPattern.SEQUENTIAL:
                run = 1 << 20   # effectively unbounded runs
                per_channel = 1.0
            else:
                run = block_bytes
                per_channel = streams / self.channels
            base = row_locality_efficiency(
                run, per_channel,
                sequential_eff=self.config.sequential_efficiency,
                random_eff=self.config.random_efficiency)
        return base * (1.0 - self.config.write_penalty * write_fraction)

    def sustained_bandwidth(self, pattern: AccessPattern, block_bytes: int,
                            streams: int, *,
                            write_fraction: float = 0.0) -> float:
        """Bandwidth the device sustains (B/s of *bus* traffic)."""
        return self.peak_bandwidth * self.efficiency(
            pattern, block_bytes, streams, write_fraction=write_fraction)
