"""The §6 "Best Practices for CXL memory" advisor, made executable.

Given a declarative :class:`WorkloadProfile`, :func:`advise` emits the
paper's recommendations that apply, each tied to the section it came
from.  :func:`classify` implements §6.1's bandwidth-bound vs
latency-bound application categorization from a measured scaling curve.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from ..errors import WorkloadError
from .series import Series


class LatencyClass(enum.Enum):
    """Order-of-magnitude end-to-end latency of one request."""

    MICROSECONDS = "us"
    MILLISECONDS = "ms"
    SECONDS = "s"


@dataclass(frozen=True)
class WorkloadProfile:
    """What the advisor needs to know about an application."""

    name: str
    latency_class: LatencyClass
    read_fraction: float               # of memory traffic
    bulk_transfer_bytes: int = 0       # typical bulk move size (0 = none)
    writer_threads: int = 1
    short_term_reuse: bool = True      # will moved data be re-read soon?
    has_intermediate_compute: bool = False   # layers between user & memory

    def __post_init__(self) -> None:
        if not 0.0 <= self.read_fraction <= 1.0:
            raise WorkloadError(
                f"read_fraction out of range: {self.read_fraction}")
        if self.writer_threads < 0 or self.bulk_transfer_bytes < 0:
            raise WorkloadError("negative profile parameters")


@dataclass(frozen=True)
class Advice:
    """One applicable recommendation."""

    rule: str            # short identifier
    source: str          # paper section
    text: str

    def __str__(self) -> str:
        return f"[{self.rule}] ({self.source}) {self.text}"


def advise(profile: WorkloadProfile) -> list[Advice]:
    """All §6 recommendations applicable to ``profile``."""
    recommendations: list[Advice] = []

    if not profile.short_term_reuse:
        recommendations.append(Advice(
            "nt-store", "§6 / §4",
            "Use non-temporal stores or movdir64B when moving data "
            "from/to CXL memory: no RFO, no cache pollution.  Both are "
            "weakly ordered — fence before relying on visibility."))

    if profile.writer_threads > 2:
        recommendations.append(Advice(
            "limit-writers", "§6 / §4.3",
            f"Limit concurrent CXL writers (currently "
            f"{profile.writer_threads}): the device controller's buffer "
            "overflows past ~2 nt-store threads; funnel writes through a "
            "centralized stub or OS daemon."))

    if profile.bulk_transfer_bytes >= 4096:
        recommendations.append(Advice(
            "use-dsa", "§6 / §4.3.1",
            "Offload bulk movement (page-granularity, 4 KiB/2 MiB) to "
            "Intel DSA asynchronously with batching; it frees CPU cycles "
            "and exceeds instruction-based copies."))

    recommendations.append(Advice(
        "interleave", "§6 / §5",
        "Interleave memory across DRAM and CXL channels with NUMA "
        "policies to spread bandwidth load; tune the N:M ratio to the "
        "device's share of total bandwidth."))

    if profile.latency_class is LatencyClass.MICROSECONDS:
        recommendations.append(Advice(
            "avoid-pure-cxl", "§6 / §5.1",
            f"{profile.name} serves us-level requests: do NOT run it "
            "entirely on CXL memory — delayed accesses accumulate into "
            "2x tail-latency penalties (the Redis result).  Pin hot data "
            "to DRAM."))
    elif (profile.latency_class is LatencyClass.MILLISECONDS
          and profile.has_intermediate_compute):
        recommendations.append(Advice(
            "offload-to-cxl", "§6 / §5.3",
            f"{profile.name} is a good CXL-offload candidate: ms-level "
            "latency with intermediate computation amortizes the extra "
            "access latency (the DeathStarBench result).  Keep "
            "compute-intensive components on DRAM, offload caches and "
            "storage."))

    if (profile.read_fraction >= 0.8
            and profile.latency_class is not LatencyClass.MICROSECONDS):
        recommendations.append(Advice(
            "read-heavy-target", "§6",
            "Read-heavy traffic avoids the device's write-buffer "
            "limitations entirely — a favorable CXL profile."))

    return recommendations


def classify(scaling: Series, *, linear_tolerance: float = 0.10) -> str:
    """§6.1's categorization from a throughput-vs-threads curve.

    Returns ``"bandwidth-bound"`` when throughput goes sublinear beyond
    some thread count (the DLRM-on-SNC signature), ``"latency-bound"``
    when it stays linear but with a depressed slope relative to the
    curve's own start (the Redis signature is detected by the caller
    comparing schemes), and ``"not-bound"`` when linear throughout.
    """
    if len(scaling) < 3:
        raise WorkloadError("need at least 3 points to classify")
    slopes = [y / x for x, y in zip(scaling.x, scaling.y) if x > 0]
    if not slopes:
        raise WorkloadError("scaling curve needs positive thread counts")
    if min(slopes) < (1.0 - linear_tolerance) * slopes[0]:
        return "bandwidth-bound"
    return "not-bound"
