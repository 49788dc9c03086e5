"""The composed CXL Type-3 memory backend.

Puts the protocol pieces together into the device half of the "CXL"
memory scheme: port (flit transport) + device controller (buffers, FPGA
penalty) + backing DDR4.  Implements the same :class:`MemoryBackend`
interface as plain DRAM so the perfmodel treats all three schemes
uniformly.
"""

from __future__ import annotations

from ..config import CxlDeviceConfig
from ..faults import FaultPlan
from ..interconnect.pcie import PciePhy
from ..mem.device import MemoryBackend
from ..mem.dram import AccessPattern, DramDevice
from .controller import CxlDeviceController
from .messages import read_transaction, write_transaction
from .port import CxlPort


class CxlMemoryBackend(MemoryBackend):
    """Device-side model of the Agilex-I CXL memory expander.

    An active ``fault_plan`` degrades the analytic model the same way
    the DES layer injects faults mechanically: expected stall/retry
    latency joins the protocol path, and CRC retransmissions plus
    degraded link width/speed derate the link ceiling (docs/FAULTS.md).
    """

    def __init__(self, config: CxlDeviceConfig, port: CxlPort, *,
                 fault_plan: FaultPlan | None = None) -> None:
        self.cxl_config = config
        self.port = port
        self.device_controller = CxlDeviceController(
            config, fault_plan=fault_plan)
        read_txn = read_transaction()
        write_txn = write_transaction()
        fault_ns = self.device_controller.expected_fault_latency_ns()
        # One-way extra latency beyond the socket edge: protocol round
        # trip (both hops + serialization + pack/unpack) plus the device
        # controller; the DRAM access itself is counted by the base class.
        read_path = (port.transaction_round_trip_ns(read_txn)
                     + self.device_controller.processing_ns()
                     + fault_ns)
        write_path = (port.transaction_round_trip_ns(write_txn)
                      + self.device_controller.processing_ns()
                      + fault_ns)
        # Reads return data (5-slot DRS) so the dominant direction is S2M;
        # the link ceiling accounts for header+framing overhead.  The
        # fault derate is applied over the *combined* ceiling in
        # :meth:`bus_ceiling` — retries and stalls occupy the device
        # pipeline end to end, not just the wire.
        link_ceiling = port.data_bandwidth_ceiling(slots_per_line=5)
        super().__init__(label="CXL",
                         device=DramDevice(config.dram),
                         extra_read_ns=read_path,
                         extra_write_ns=write_path,
                         link_bandwidth=link_ceiling)

    def read_components_ns(self) -> tuple[tuple[str, float], ...]:
        """The paper's read-path decomposition, as span components.

        ``link`` is the protocol round trip on the wire (both hops,
        serialization, flit pack/unpack), ``ctrl`` the device-side
        controller processing plus any expected fault latency, and
        ``media`` the DRAM access behind the controller — the same
        split §4 of the paper measures between IP-provided counters.
        """
        link = self.port.transaction_round_trip_ns(read_transaction())
        ctrl = (self.device_controller.processing_ns()
                + self.device_controller.expected_fault_latency_ns())
        return (("link", link), ("ctrl", ctrl),
                ("media", self.device.config.access_ns))

    def bus_ceiling(self, pattern: AccessPattern, block_bytes: int,
                    streams: int, *, write_fraction: float = 0.0) -> float:
        """DRAM-side ceiling behind the controller, capped by the link.

        Under an active fault plan the whole ceiling is derated: CRC
        retransmissions re-send flits, and stalled/poisoned requests
        hold controller buffers, so every byte of goodput costs more
        than one byte of device time regardless of which stage binds.
        """
        ceiling = super().bus_ceiling(pattern, block_bytes, streams,
                                      write_fraction=write_fraction)
        return ceiling * self.device_controller.fault_bandwidth_derate()

    def concurrency_derate(self, *, readers: int, writers: int,
                           nt_writers: int = 0) -> float:
        """Combined Agilex controller derates (§4.3.1, §4.3.2)."""
        derate = 1.0
        if readers > 0:
            derate *= self.device_controller.load_thread_derate(readers)
        if nt_writers > 0:
            derate *= self.device_controller.write_buffer_derate(nt_writers)
        if writers > 0:
            derate *= self.device_controller.store_interference_derate(writers)
        return derate


def build_cxl_backend(config: CxlDeviceConfig, *,
                      fault_plan: FaultPlan | None = None
                      ) -> CxlMemoryBackend:
    """Backend for a :class:`~repro.config.CxlDeviceConfig` preset.

    Constructs the PCIe PHY from the config's link parameters (the preset
    is Gen5 x16, §3).  ``fault_plan`` builds the degraded-mode twin.
    """
    phy = PciePhy(hop_latency_ns=config.link.hop_latency_ns)
    return CxlMemoryBackend(config, CxlPort(phy), fault_plan=fault_plan)
