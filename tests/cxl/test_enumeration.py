"""The CXL.io enumeration flow: DVSEC -> HDM -> NUMA nodes."""

import pytest

from repro import build_system, units
from repro.config import pooled_cxl_testbed, single_socket_testbed
from repro.errors import ProtocolError
from repro.cxl.enumeration import (
    CXL_VENDOR_ID,
    DeviceDvsec,
    dvsec_for,
    enumerate_devices,
    map_devices,
    numa_nodes_for,
)
from repro.cxl.taxonomy import CxlDeviceType


def type3_dvsec(capacity=units.gib(16), **overrides) -> DeviceDvsec:
    params = dict(vendor_id=CXL_VENDOR_ID,
                  device_type=CxlDeviceType.TYPE3, cxl_version="1.1",
                  memory_capacity_bytes=capacity)
    params.update(overrides)
    return DeviceDvsec(**params)


class TestDvsecValidation:
    def test_valid_type3_passes(self):
        type3_dvsec().validate()

    def test_wrong_vendor_rejected(self):
        with pytest.raises(ProtocolError):
            type3_dvsec(vendor_id=0x8086).validate()

    def test_unsupported_version_rejected(self):
        with pytest.raises(ProtocolError):
            type3_dvsec(cxl_version="0.9").validate()

    def test_memory_device_needs_capacity(self):
        with pytest.raises(ProtocolError):
            type3_dvsec(capacity=0).validate()

    def test_type1_must_not_advertise_memory(self):
        with pytest.raises(ProtocolError):
            type3_dvsec(device_type=CxlDeviceType.TYPE1).validate()

    def test_type1_without_memory_is_fine(self):
        type3_dvsec(device_type=CxlDeviceType.TYPE1,
                    capacity=0).validate()

    def test_dvsec_for_preset(self):
        dvsec = dvsec_for(single_socket_testbed().cxl, serial="x")
        dvsec.validate()
        assert dvsec.memory_capacity_bytes == units.gib(16)
        assert dvsec.cxl_version == "1.1"


class TestEnumeration:
    def test_assigns_consecutive_ids(self):
        devices = enumerate_devices([type3_dvsec(), type3_dvsec()])
        assert [d.device_id for d in devices] == [0, 1]

    def test_bad_device_aborts_enumeration(self):
        with pytest.raises(ProtocolError):
            enumerate_devices([type3_dvsec(),
                               type3_dvsec(vendor_id=0x1234)])


class TestMapping:
    def test_consecutive_hpa_windows(self):
        devices = enumerate_devices(
            [type3_dvsec(units.gib(16)), type3_dvsec(units.gib(16))])
        decoder, mapped = map_devices(devices, hpa_base=units.gib(128))
        assert mapped[0].hpa_base == units.gib(128)
        assert mapped[1].hpa_base == units.gib(144)
        assert decoder.total_capacity() == units.gib(32)

    def test_type1_devices_not_mapped(self):
        devices = enumerate_devices(
            [type3_dvsec(device_type=CxlDeviceType.TYPE1, capacity=0),
             type3_dvsec()])
        decoder, mapped = map_devices(devices, hpa_base=0)
        assert len(mapped) == 1
        assert mapped[0].device_id == 1

    def test_negative_base_rejected(self):
        with pytest.raises(ProtocolError):
            map_devices([], hpa_base=-1)


class TestNumaExposure:
    def test_nodes_are_cpuless_cxl(self):
        devices = enumerate_devices([type3_dvsec()])
        _, mapped = map_devices(devices, hpa_base=0)
        nodes = numa_nodes_for(mapped, first_node_id=2)
        assert nodes[0].node_id == 2
        assert nodes[0].is_cpuless
        assert nodes[0].capacity_bytes == units.gib(16)


class TestSystemIntegration:
    def test_system_exposes_hdm_decoder(self):
        system = build_system(single_socket_testbed())
        assert system.hdm.total_capacity() == units.gib(16)

    def test_hdm_window_sits_above_dram(self):
        system = build_system(single_socket_testbed())
        dram_top = system.topology.node(0).capacity_bytes
        entry = system.hdm.ranges[0]
        assert entry.base == dram_top

    def test_pooled_devices_each_get_a_window(self):
        system = build_system(pooled_cxl_testbed(3))
        assert len(system.hdm.ranges) == 3
        assert len(system.topology.cxl_nodes) == 3
