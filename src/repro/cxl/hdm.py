"""Host-managed device memory (HDM) decoder ranges.

A Type-3 device's memory appears in the host physical address space via
HDM decoder ranges programmed at enumeration.  The OS then exposes each
range as a CPU-less NUMA node (§3).  The ranges here validate multiple
devices and the spec's power-of-two way interleaving, although the
paper's testbed uses a single device (one range, one way).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ProtocolError


@dataclass(frozen=True)
class HdmRange:
    """One decoder entry: [base, base+size) -> a set of device targets."""

    base: int
    size: int
    targets: tuple[int, ...]            # device ids, len = interleave ways
    granularity: int = 256              # interleave granularity in bytes

    def __post_init__(self) -> None:
        if self.base < 0 or self.size <= 0:
            raise ProtocolError("HDM range must have base >= 0 and size > 0")
        ways = len(self.targets)
        if ways == 0 or ways & (ways - 1):
            raise ProtocolError(
                f"interleave ways must be a power of two, got {ways}")
        if self.granularity < 64 or self.granularity & (self.granularity - 1):
            raise ProtocolError(
                f"granularity must be a power of two >= 64, got "
                f"{self.granularity}")

    @property
    def end(self) -> int:
        return self.base + self.size


class HdmDecoder:
    """An ordered set of non-overlapping HDM ranges."""

    def __init__(self) -> None:
        self._ranges: list[HdmRange] = []

    @property
    def ranges(self) -> list[HdmRange]:
        return list(self._ranges)

    def add_range(self, new: HdmRange) -> None:
        """Program a decoder entry; overlap with existing entries is fatal."""
        for existing in self._ranges:
            if new.base < existing.end and existing.base < new.end:
                raise ProtocolError(
                    f"HDM range [{new.base:#x}, {new.end:#x}) overlaps "
                    f"[{existing.base:#x}, {existing.end:#x})")
        self._ranges.append(new)
        self._ranges.sort(key=lambda r: r.base)

    def total_capacity(self) -> int:
        """Bytes of device memory mapped into the host address space."""
        return sum(entry.size for entry in self._ranges)
