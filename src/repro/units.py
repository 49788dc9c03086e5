"""Units and conversions used throughout the simulator.

The simulator's canonical units are:

* **time** — nanoseconds (``float``), because every latency in the paper is
  quoted in ns or µs;
* **size** — bytes (``int``), with binary prefixes for capacities
  (KiB/MiB/GiB) and decimal prefixes for link rates, matching how the
  paper mixes "16 GB DRAM" (capacity) with "221 GB/s" (decimal bandwidth);
* **bandwidth** — bytes per second (``float``); helpers convert to and
  from the GB/s figures printed in the paper.

Keeping conversions in one module avoids the classic off-by-1000 bugs
between GiB and GB when calibrating against the paper's numbers.
"""

from __future__ import annotations

from numbers import Integral

# --- time ------------------------------------------------------------------

NS = 1.0
US = 1_000.0
MS = 1_000_000.0
SEC = 1_000_000_000.0


def ns_to_us(ns: float) -> float:
    """Convert nanoseconds to microseconds."""
    return ns / US


def ns_to_ms(ns: float) -> float:
    """Convert nanoseconds to milliseconds."""
    return ns / MS


def ns_to_sec(ns: float) -> float:
    """Convert nanoseconds to seconds."""
    return ns / SEC


def sec_to_ns(sec: float) -> float:
    """Convert seconds to nanoseconds."""
    return sec * SEC


# --- sizes -----------------------------------------------------------------

KIB = 1024
MIB = 1024 * KIB
GIB = 1024 * MIB

KB = 1000
MB = 1000 * KB
GB = 1000 * MB

CACHELINE = 64
"""Size of one x86 cacheline in bytes; also one AVX-512 register's width."""

PAGE_4K = 4 * KIB
"""Base OS page size used by the NUMA allocator."""

PAGE_2M = 2 * MIB
"""Huge-page size; the DSA guideline in the paper mentions both 4K and 2M."""

CXL_FLIT_BYTES = 68
"""A CXL 1.1 flit: 64 B of slots + 2 B CRC + 2 B protocol ID (paper §2.1)."""

CXL_FLIT_PAYLOAD = 64
"""Payload carried by one protocol flit."""


def kib(n: float) -> int:
    """``n`` KiB expressed in bytes."""
    return int(n * KIB)


def mib(n: float) -> int:
    """``n`` MiB expressed in bytes."""
    return int(n * MIB)


def gib(n: float) -> int:
    """``n`` GiB expressed in bytes."""
    return int(n * GIB)


# --- bandwidth -------------------------------------------------------------


def gb_per_s(rate: float) -> float:
    """Convert a decimal GB/s figure (as printed in the paper) to B/s."""
    return rate * GB


def to_gb_per_s(bytes_per_s: float) -> float:
    """Convert B/s to the decimal GB/s convention used by the paper."""
    return bytes_per_s / GB


def transfer_ns(nbytes: float, bytes_per_s: float) -> float:
    """Time in ns to move ``nbytes`` at a sustained rate of ``bytes_per_s``."""
    if bytes_per_s <= 0:
        raise ValueError(f"bandwidth must be positive, got {bytes_per_s}")
    return nbytes / bytes_per_s * SEC


def bandwidth_from(nbytes: float, elapsed_ns: float) -> float:
    """Sustained bandwidth in B/s given bytes moved over ``elapsed_ns``."""
    if elapsed_ns <= 0:
        raise ValueError(f"elapsed time must be positive, got {elapsed_ns}")
    return nbytes / (elapsed_ns / SEC)


def ddr_peak_bandwidth(transfer_mt_s: float, channels: int = 1,
                       bus_bytes: int = 8) -> float:
    """Theoretical peak bandwidth of a DDR interface, in B/s.

    ``transfer_mt_s`` is the MT/s rating (e.g. 4800 for DDR5-4800, 2666 for
    DDR4-2666).  Each transfer moves ``bus_bytes`` (8 B for a standard
    64-bit channel).  This reproduces the paper's grey dashed line in
    Fig. 3b: DDR4-2666 x1 -> 21.3 GB/s.
    """
    if transfer_mt_s <= 0 or channels <= 0:
        raise ValueError("transfer rate and channel count must be positive")
    return transfer_mt_s * 1e6 * bus_bytes * channels


def format_bytes(nbytes: float) -> str:
    """Human-readable binary size, e.g. ``format_bytes(2048) == '2.0KiB'``."""
    value = float(nbytes)
    for suffix in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024 or suffix == "TiB":
            if suffix == "B":
                return f"{int(value)}B"
            return f"{value:.1f}{suffix}"
        value /= 1024
    raise AssertionError("unreachable")


def format_ns(ns_value: float) -> str:
    """Human-readable duration, e.g. ``format_ns(1500) == '1.5us'``."""
    if ns_value < US:
        return f"{ns_value:.1f}ns"
    if ns_value < MS:
        return f"{ns_value / US:.1f}us"
    if ns_value < SEC:
        return f"{ns_value / MS:.2f}ms"
    return f"{ns_value / SEC:.3f}s"


# --- counts ------------------------------------------------------------------


def is_count(value: object) -> bool:
    """True for a positive integer (numpy integers too, never a bool)."""
    return isinstance(value, Integral) and not isinstance(value, bool) \
        and value > 0
