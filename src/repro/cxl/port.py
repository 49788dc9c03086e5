"""The CXL port: flit transport over a PCIe PHY.

Adds host-side pack/unpack overhead to the raw PHY hop and converts
slot counts into serialized wire time.  Bandwidth ceilings derived here
already account for flit framing (68 B per 64 B of slots) and protocol
headers, which is why a PCIe Gen5 x16 port cannot deliver 64 GB/s of
*application* data.
"""

from __future__ import annotations

from ..interconnect.pcie import PcieGen, PciePhy
from ..units import SEC
from .flit import SLOT_BYTES, wire_bytes_for_slots
from .messages import MemTransaction


class CxlPort:
    """One CXL 1.1 link between a root complex and a device."""

    def __init__(self, phy: PciePhy | None = None,
                 pack_ns: float = 10.0) -> None:
        self.phy = phy if phy is not None else PciePhy(PcieGen.GEN5, 16)
        # Host-side flit packing / unpacking (the "set of rules" cost).
        self.pack_ns = pack_ns

    @property
    def raw_bandwidth(self) -> float:
        """PHY line rate per direction, B/s."""
        return self.phy.bandwidth

    def slot_transfer_ns(self, num_slots: int) -> float:
        """Time to serialize ``num_slots`` packed payload slots."""
        return wire_bytes_for_slots(num_slots) / self.raw_bandwidth * SEC

    def transaction_round_trip_ns(self, txn: MemTransaction) -> float:
        """Unloaded protocol round trip for one transaction (Fig. 1).

        pack + request hop + serialize, then response hop + serialize +
        unpack.  Device-internal time is *not* included — that belongs to
        :class:`~repro.cxl.controller.CxlDeviceController`.
        """
        request = (self.pack_ns
                   + self.phy.config.hop_latency_ns
                   + self.slot_transfer_ns(txn.request_slots))
        response = (self.phy.config.hop_latency_ns
                    + self.slot_transfer_ns(txn.response_slots)
                    + self.pack_ns)
        return request + response

    def data_bandwidth_ceiling(self, *, slots_per_line: int) -> float:
        """Application B/s the link sustains in one direction.

        ``slots_per_line`` is the payload slots shipped per 64 B of
        application data in the bandwidth-dominant direction (5 for
        reads: header + 4 data slots of MemData).
        """
        if slots_per_line <= 0:
            raise ValueError("slots_per_line must be positive")
        wire_per_line = wire_bytes_for_slots(slots_per_line)
        line_payload = 4 * SLOT_BYTES
        return self.raw_bandwidth * line_payload / wire_per_line
