"""CXL.io enumeration: how Type-3 devices become NUMA nodes.

§2.1: CXL.io "is mainly used for protocol negotiation and host-device
initialization", and §3: the device "is transparently exposed to the CPU
and OS as a NUMA node having 16 GB memory without CPU cores".  This
module models the boot-time path between those two sentences:

1. each device presents a :class:`DeviceDvsec` (the CXL DVSEC config-
   space structure) declaring its type, protocol versions, and memory
   capacity;
2. :func:`enumerate_devices` walks the "bus", validates each DVSEC
   (Type-3 must speak CXL.mem, version compatibility, sane capacity);
3. :func:`map_devices` programs consecutive HDM decoder ranges and
   returns the decoder plus per-device host-physical bases;
4. :func:`numa_nodes_for` turns the mapped devices into CPU-less
   NUMA-node descriptions, which :class:`repro.cpu.system.System`
   consumes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CxlDeviceConfig
from ..errors import ProtocolError
from ..topology.numa import MemoryKind, NumaNode
from .hdm import HdmDecoder, HdmRange
from .taxonomy import CxlDeviceType, CxlProtocol

CXL_VENDOR_ID = 0x1E98
"""The CXL consortium's DVSEC vendor id."""

SUPPORTED_CXL_VERSIONS = ("1.1", "2.0")


@dataclass(frozen=True)
class DeviceDvsec:
    """The subset of the CXL DVSEC a host needs at enumeration time."""

    vendor_id: int
    device_type: CxlDeviceType
    cxl_version: str
    memory_capacity_bytes: int
    serial: str = "sim-0000"

    def validate(self) -> None:
        """The checks a root port performs before exposing the device."""
        if self.vendor_id != CXL_VENDOR_ID:
            raise ProtocolError(
                f"device {self.serial}: DVSEC vendor {self.vendor_id:#x} "
                f"is not the CXL consortium id {CXL_VENDOR_ID:#x}")
        if self.cxl_version not in SUPPORTED_CXL_VERSIONS:
            raise ProtocolError(
                f"device {self.serial}: unsupported CXL version "
                f"{self.cxl_version}")
        if self.device_type.has_host_managed_memory:
            if self.memory_capacity_bytes <= 0:
                raise ProtocolError(
                    f"device {self.serial}: CXL.mem device with no "
                    "memory capacity")
        elif self.memory_capacity_bytes:
            raise ProtocolError(
                f"device {self.serial}: Type-1 device advertises memory")


@dataclass(frozen=True)
class DiscoveredDevice:
    """One enumerated device, pre-HDM-mapping."""

    device_id: int
    dvsec: DeviceDvsec


@dataclass(frozen=True)
class MappedDevice:
    """A device with its host-physical window programmed."""

    device_id: int
    dvsec: DeviceDvsec
    hpa_base: int


def dvsec_for(config: CxlDeviceConfig, serial: str) -> DeviceDvsec:
    """The DVSEC an Agilex-I-like Type-3 expander presents."""
    return DeviceDvsec(vendor_id=CXL_VENDOR_ID,
                       device_type=CxlDeviceType.TYPE3,
                       cxl_version="1.1",
                       memory_capacity_bytes=config.dram.capacity_bytes,
                       serial=serial)


def enumerate_devices(dvsecs: list[DeviceDvsec]) -> list[DiscoveredDevice]:
    """Validate every presented DVSEC and assign device ids."""
    discovered = []
    for device_id, dvsec in enumerate(dvsecs):
        dvsec.validate()
        dvsec.device_type.require(CxlProtocol.IO)
        discovered.append(DiscoveredDevice(device_id, dvsec))
    return discovered


def map_devices(devices: list[DiscoveredDevice], *,
                hpa_base: int) -> tuple[HdmDecoder, list[MappedDevice]]:
    """Program one HDM range per memory device, consecutively."""
    if hpa_base < 0:
        raise ProtocolError("HPA base must be non-negative")
    decoder = HdmDecoder()
    mapped = []
    cursor = hpa_base
    for device in devices:
        if not device.dvsec.device_type.has_host_managed_memory:
            continue        # Type-1: nothing to map
        size = device.dvsec.memory_capacity_bytes
        decoder.add_range(HdmRange(base=cursor, size=size,
                                   targets=(device.device_id,)))
        mapped.append(MappedDevice(device.device_id, device.dvsec,
                                   hpa_base=cursor))
        cursor += size
    return decoder, mapped


def numa_nodes_for(mapped: list[MappedDevice], *,
                   first_node_id: int) -> list[NumaNode]:
    """CPU-less NUMA nodes for the mapped devices (§3's exposure)."""
    return [NumaNode(first_node_id + index, MemoryKind.CXL,
                     device.dvsec.memory_capacity_bytes, label="CXL")
            for index, device in enumerate(mapped)]
