"""One CPU package at runtime: cores, a cache hierarchy, local memory."""

from __future__ import annotations

from ..cache.hierarchy import CacheHierarchy
from ..config import SocketConfig
from ..interconnect.mesh import Mesh
from ..mem.device import MemoryBackend
from ..mem.dram import DramDevice
from .core import Core


class Socket:
    """Runtime view of a :class:`~repro.config.SocketConfig`."""

    def __init__(self, config: SocketConfig, *, snc: bool = False) -> None:
        if snc:
            config = config.snc_node()
        self.config = config
        self.snc = snc
        self.cores = [Core(config.core, core_id=i)
                      for i in range(config.cores)]
        self.mesh = Mesh(config.mesh_ns, snc=snc)
        self.local_dram = DramDevice(config.dram)

    @property
    def name(self) -> str:
        return self.config.name

    def new_hierarchy(self, *, telemetry=None) -> CacheHierarchy:
        """A fresh (cold) cache hierarchy for a functional experiment."""
        return CacheHierarchy(self.config.cache, telemetry=telemetry)

    def hierarchy_traversal_ns(self) -> float:
        """Core to LLC-miss detection: the on-chip part of every miss."""
        return sum(level.latency_ns for level in self.config.cache.levels)

    def socket_edge_ns(self) -> float:
        """Core to the socket boundary: caches + mesh + home agent.

        This is the host-side latency prefix shared by all three memory
        schemes; the schemes differ only in what lies beyond the edge.
        """
        return (self.hierarchy_traversal_ns()
                + self.mesh.traverse_ns()
                + self.config.home_agent_ns)

    def local_backend(self) -> MemoryBackend:
        """The DDR5-L8 backend (or the 2-channel SNC slice)."""
        label = "SNC-DDR5-L2" if self.snc else "DDR5-L8"
        return MemoryBackend(label=label, device=self.local_dram)
