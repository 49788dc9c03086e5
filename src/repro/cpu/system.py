"""The whole machine: sockets + NUMA topology + memory backends.

:class:`System` is the root object of the library.  It exposes the
paper's three memory schemes uniformly:

* ``MemoryScheme.DDR5_L8`` — all eight local DDR5 channels;
* ``MemoryScheme.DDR5_R1`` — remote-socket DDR5 restricted to one
  channel ("to facilitate a fair comparison of memory channel count",
  §4.3);
* ``MemoryScheme.CXL`` — the Agilex-I Type-3 device.

plus a page allocator over the OS-visible NUMA nodes so applications can
place memory with the §5 policies.
"""

from __future__ import annotations

import enum

from ..config import SystemConfig
from ..cxl.device import CxlMemoryBackend, build_cxl_backend
from ..cxl.enumeration import (
    dvsec_for,
    enumerate_devices,
    map_devices,
    numa_nodes_for,
)
from ..errors import ConfigError
from ..interconnect.upi import UpiLink
from ..mem.device import MemoryBackend
from ..mem.dram import DramDevice
from ..topology.allocator import PageAllocator
from ..topology.numa import MemoryKind, NumaNode, NumaTopology
from .socket import Socket


class MemoryScheme(enum.Enum):
    """The three memory schemes compared throughout the paper."""

    DDR5_L8 = "DDR5-L8"
    DDR5_R1 = "DDR5-R1"
    CXL = "CXL"

    @property
    def label(self) -> str:
        return self.value


class System:
    """Runtime machine model assembled from a :class:`SystemConfig`."""

    LOCAL_NODE = 0
    REMOTE_NODE = 1

    def __init__(self, config: SystemConfig, *, snc: bool = False,
                 fault_plan=None) -> None:
        self.config = config
        self.snc = snc
        self.fault_plan = fault_plan
        self.sockets = [Socket(config.sockets[0], snc=snc)]
        self.sockets += [Socket(s) for s in config.sockets[1:]]
        self.upi = UpiLink(config.upi) if config.upi is not None else None

        nodes = [NumaNode(self.LOCAL_NODE, MemoryKind.DRAM_LOCAL,
                          self.sockets[0].config.dram.capacity_bytes,
                          cpus=self.sockets[0].config.cores,
                          label="DDR5-L8")]
        if len(self.sockets) > 1:
            nodes.append(NumaNode(self.REMOTE_NODE, MemoryKind.DRAM_REMOTE,
                                  self.sockets[1].config.dram.capacity_bytes,
                                  cpus=self.sockets[1].config.cores,
                                  label="DDR5-R"))
        # CXL devices go through the enumeration flow (CXL.io DVSEC
        # validation -> HDM decoder programming -> CPU-less NUMA nodes),
        # exactly the boot path §2.1/§3 describe.
        self._cxl_node_id = len(nodes)
        dvsecs = [dvsec_for(device, serial=f"agilex-{index}")
                  for index, device in enumerate(config.cxl_devices)]
        discovered = enumerate_devices(dvsecs)
        dram_top = sum(node.capacity_bytes for node in nodes)
        self.hdm, mapped = map_devices(discovered, hpa_base=dram_top)
        nodes += numa_nodes_for(mapped, first_node_id=self._cxl_node_id)
        # An active fault plan degrades every device's analytic model —
        # expected stall/retry latency joins the protocol path and CRC
        # retransmissions plus retrained-link fractions derate the link
        # ceiling (docs/FAULTS.md).
        self._cxl_backends: list[CxlMemoryBackend] = [
            build_cxl_backend(device, fault_plan=fault_plan)
            for device in config.cxl_devices]
        self.topology = NumaTopology(nodes=nodes)
        self.allocator = PageAllocator(self.topology)

    # -- structure --------------------------------------------------------

    @property
    def socket(self) -> Socket:
        """The socket running the benchmark threads."""
        return self.sockets[0]

    @property
    def has_remote_socket(self) -> bool:
        return len(self.sockets) > 1

    @property
    def has_cxl(self) -> bool:
        return bool(self._cxl_backends)

    @property
    def cxl_node_id(self) -> int:
        if not self.has_cxl:
            raise ConfigError(f"system {self.config.name!r} has no CXL node")
        return self._cxl_node_id

    def snc_system(self) -> "System":
        """This system with socket 0 in SNC mode (one cluster, Fig. 9)."""
        return System(self.config, snc=True, fault_plan=self.fault_plan)

    # -- host-side latency components --------------------------------------

    def edge_ns(self) -> float:
        """Core to socket edge (caches + mesh + home agent)."""
        return self.socket.socket_edge_ns()

    def flushed_line_penalty_ns(self) -> float:
        """Extra coherence cost of touching an explicitly flushed line."""
        return self.config.flushed_line_penalty_ns

    # -- backends -----------------------------------------------------------

    def backend_for_node(self, node_id: int) -> MemoryBackend:
        """The device-side backend behind a NUMA node."""
        node = self.topology.node(node_id)
        if node.kind is MemoryKind.DRAM_LOCAL:
            return self.socket.local_backend()
        if node.kind is MemoryKind.DRAM_REMOTE:
            return self._remote_backend(channels=None)
        return self._cxl_backends[node_id - self._cxl_node_id]

    def scheme_backend(self, scheme: MemoryScheme) -> MemoryBackend:
        """The backend for one of the paper's three schemes."""
        if scheme is MemoryScheme.DDR5_L8:
            return self.socket.local_backend()
        if scheme is MemoryScheme.DDR5_R1:
            return self._remote_backend(channels=1)
        return self.cxl_backend()

    def scheme_node(self, scheme: MemoryScheme) -> int:
        """The NUMA node where a scheme's memory lives."""
        if scheme is MemoryScheme.DDR5_L8:
            return self.LOCAL_NODE
        if scheme is MemoryScheme.DDR5_R1:
            if not self.has_remote_socket:
                raise ConfigError("no remote socket in this system")
            return self.REMOTE_NODE
        return self.cxl_node_id

    def cxl_backend(self) -> CxlMemoryBackend:
        if not self.has_cxl:
            raise ConfigError(f"system {self.config.name!r} has no CXL device")
        return self._cxl_backends[0]

    def _remote_backend(self, channels: int | None) -> MemoryBackend:
        if not self.has_remote_socket or self.upi is None:
            raise ConfigError("system has no remote socket / UPI link")
        dram = self.sockets[1].config.dram
        if channels is not None:
            dram = dram.with_channels(channels)
        label = f"DDR5-R{channels}" if channels is not None else "DDR5-R8"
        round_trip = self.upi.cacheline_round_trip_ns()
        return MemoryBackend(label=label,
                             device=DramDevice(dram),
                             extra_read_ns=round_trip,
                             extra_write_ns=round_trip,
                             link_bandwidth=self.upi.effective_bandwidth())

    def available_schemes(self) -> list[MemoryScheme]:
        """Schemes this testbed can measure."""
        schemes = [MemoryScheme.DDR5_L8]
        if self.has_remote_socket:
            schemes.append(MemoryScheme.DDR5_R1)
        if self.has_cxl:
            schemes.append(MemoryScheme.CXL)
        return schemes
