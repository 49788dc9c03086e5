"""The backend abstraction every memory scheme implements.

A :class:`MemoryBackend` is the device half of one of the paper's three
memory schemes (DDR5-L8, DDR5-R1, CXL).  It reports:

* ``label`` — the scheme name used in figures;
* ``idle_read_ns`` / ``idle_write_ns`` — unloaded device+path latency
  beyond the CPU socket boundary;
* ``read_ceiling`` / ``write_ceiling`` — per-direction bus-bandwidth
  ceilings for a traffic shape;
* ``concurrency_derate`` — device-specific degradation as a function of
  the number of writer/reader threads (the Agilex controller's behavior
  in §4.3.1 lives behind this hook; plain DRAM returns 1.0).
"""

from __future__ import annotations

from dataclasses import dataclass

from .dram import AccessPattern, DramDevice


@dataclass
class MemoryBackend:
    """Device-side view of one memory scheme."""

    label: str
    device: DramDevice
    # Extra one-way path latency beyond the socket (UPI hops, CXL stack).
    extra_read_ns: float = 0.0
    extra_write_ns: float = 0.0
    # A link ceiling if the path crosses one (UPI/PCIe); None = unlimited.
    link_bandwidth: float | None = None

    @property
    def channel_count(self) -> int:
        return self.device.channels

    def idle_read_ns(self) -> float:
        """Unloaded read latency from the socket edge to data return."""
        return self.device.config.access_ns + self.extra_read_ns

    def read_components_ns(self) -> tuple[tuple[str, float], ...]:
        """The read path decomposed into labeled span components.

        Components sum to :meth:`idle_read_ns` (up to float association
        order — span recorders close the sum with a residual).  Plain
        DRAM is all media; a remote path adds its interconnect hop as
        ``link``.  The CXL backend overrides this with the finer
        link/controller/media split the paper measures.
        """
        parts: tuple[tuple[str, float], ...] = ()
        if self.extra_read_ns > 0.0:
            parts += (("link", self.extra_read_ns),)
        return parts + (("media", self.device.config.access_ns),)

    def idle_write_ns(self) -> float:
        """Unloaded posted-write acceptance latency."""
        return self.device.config.access_ns + self.extra_write_ns

    def bus_ceiling(self, pattern: AccessPattern, block_bytes: int,
                    streams: int, *, write_fraction: float = 0.0) -> float:
        """Max total bus traffic (B/s), including any link ceiling."""
        sustained = self.device.sustained_bandwidth(
            pattern, block_bytes, streams, write_fraction=write_fraction)
        if self.link_bandwidth is not None:
            return min(sustained, self.link_bandwidth)
        return sustained

    def concurrency_derate(self, *, readers: int, writers: int,
                           nt_writers: int = 0) -> float:
        """Multiplier in (0, 1] applied to the bus ceiling.

        Plain DRAM controllers handle many streams gracefully — channel
        interleaving is already captured by ``row_locality_efficiency`` —
        so the base implementation returns 1.0.  The CXL device overrides
        this (see :class:`repro.cxl.device.CxlMemoryBackend`).
        """
        del readers, writers, nt_writers
        return 1.0
