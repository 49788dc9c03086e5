"""CXL port, device controller, HDM decoder, and composed backend."""

import pytest

from repro import units
from repro.config import single_socket_testbed
from repro.errors import ProtocolError
from repro.cxl import (
    CxlDeviceController,
    CxlPort,
    HdmDecoder,
    HdmRange,
    build_cxl_backend,
    read_transaction,
    write_transaction,
)
from repro.mem import AccessPattern


def cxl_config():
    return single_socket_testbed().cxl


class TestCxlPort:
    def test_round_trip_exceeds_two_hops(self):
        port = CxlPort()
        rt = port.transaction_round_trip_ns(read_transaction())
        assert rt > 2 * port.phy.config.hop_latency_ns

    def test_write_and_read_round_trips_are_close(self):
        """Both directions move header+data one way, header back."""
        port = CxlPort()
        read_rt = port.transaction_round_trip_ns(read_transaction())
        write_rt = port.transaction_round_trip_ns(write_transaction())
        assert read_rt == pytest.approx(write_rt, rel=0.05)

    def test_data_ceiling_below_raw_link(self):
        port = CxlPort()
        ceiling = port.data_bandwidth_ceiling(slots_per_line=5)
        assert ceiling < port.raw_bandwidth
        # 64 B payload per 136 B of wire -> just under half the raw rate.
        assert ceiling == pytest.approx(port.raw_bandwidth * 64 / 136)

    def test_invalid_slots_per_line(self):
        with pytest.raises(ValueError):
            CxlPort().data_bandwidth_ceiling(slots_per_line=0)


class TestDeviceController:
    def setup_method(self):
        self.controller = CxlDeviceController(cxl_config())

    def test_service_includes_fpga_penalty(self):
        config = cxl_config()
        assert self.controller.device_service_ns() == pytest.approx(
            config.controller_ns + config.fpga_penalty_ns
            + config.dram.access_ns)

    def test_asic_is_faster(self):
        asic = CxlDeviceController(cxl_config().as_asic())
        assert asic.device_service_ns() < self.controller.device_service_ns()

    def test_load_derate_flat_below_knee(self):
        for threads in range(1, 9):
            assert self.controller.load_thread_derate(threads) == 1.0

    def test_load_derate_drops_past_12_threads(self):
        """Fig 3b: load bandwidth drops to 16.8 of ~21 GB/s (~81%)."""
        derate = self.controller.load_thread_derate(16)
        assert derate == pytest.approx(0.81, abs=0.03)

    def test_load_derate_has_floor(self):
        assert self.controller.load_thread_derate(64) >= 0.7

    def test_load_derate_rejects_zero(self):
        with pytest.raises(ValueError):
            self.controller.load_thread_derate(0)

    def test_write_buffer_one_two_threads_ok(self):
        assert self.controller.write_buffer_derate(1) == 1.0
        assert self.controller.write_buffer_derate(2) == 1.0

    def test_write_buffer_overflows_beyond_two(self):
        """Fig 3b: nt-store peaks at 2 threads then drops immediately."""
        assert self.controller.write_buffer_derate(4) < 1.0
        assert (self.controller.write_buffer_derate(8)
                < self.controller.write_buffer_derate(4))

    def test_write_buffer_derate_floor(self):
        assert self.controller.write_buffer_derate(64) >= 0.45

    def test_store_interference_mild(self):
        assert self.controller.store_interference_derate(2) == 1.0
        assert 0.7 <= self.controller.store_interference_derate(32) < 1.0


class TestHdm:
    def test_overlap_rejected(self):
        decoder = HdmDecoder()
        decoder.add_range(HdmRange(base=0, size=4096, targets=(0,)))
        with pytest.raises(ProtocolError):
            decoder.add_range(HdmRange(base=2048, size=4096, targets=(1,)))

    def test_non_power_of_two_ways_rejected(self):
        with pytest.raises(ProtocolError):
            HdmRange(base=0, size=4096, targets=(0, 1, 2))

    def test_total_capacity(self):
        decoder = HdmDecoder()
        decoder.add_range(HdmRange(base=0, size=units.gib(16), targets=(0,)))
        decoder.add_range(HdmRange(base=units.gib(16), size=units.gib(16),
                                   targets=(1,)))
        assert decoder.total_capacity() == units.gib(32)


class TestCxlBackend:
    def setup_method(self):
        self.backend = build_cxl_backend(cxl_config())

    def test_label(self):
        assert self.backend.label == "CXL"

    def test_idle_read_latency_in_plausible_range(self):
        """Device-side CXL read path: several hundred ns (§4.2)."""
        latency = self.backend.idle_read_ns()
        assert 250.0 < latency < 700.0

    def test_single_channel(self):
        assert self.backend.channel_count == 1

    def test_bus_ceiling_near_ddr4_peak_for_sequential(self):
        bw = self.backend.bus_ceiling(AccessPattern.SEQUENTIAL, 0, 1)
        assert 18.0 < units.to_gb_per_s(bw) < 21.5

    def test_reader_derate_applies_past_knee(self):
        few = self.backend.concurrency_derate(readers=8, writers=0)
        many = self.backend.concurrency_derate(readers=16, writers=0)
        assert few == 1.0
        assert many < 1.0

    def test_nt_writer_derate_applies(self):
        two = self.backend.concurrency_derate(readers=0, writers=0,
                                              nt_writers=2)
        eight = self.backend.concurrency_derate(readers=0, writers=0,
                                                nt_writers=8)
        assert two == 1.0
        assert eight < 1.0
