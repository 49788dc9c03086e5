"""DRAM device and memory backend models."""

import pytest

from repro import units
from repro.config import DramConfig
from repro.mem import AccessPattern, DramDevice, MemoryBackend


def ddr5_l8() -> DramConfig:
    return DramConfig("DDR5", 4800, 8, units.gib(128), access_ns=52.0)


def ddr4_x1() -> DramConfig:
    return DramConfig("DDR4", 2666, 1, units.gib(16), access_ns=60.0,
                      sequential_efficiency=0.97, random_efficiency=0.42)


class TestDramDevice:
    def test_peak_bandwidth(self):
        device = DramDevice(ddr5_l8())
        assert units.to_gb_per_s(device.peak_bandwidth) == pytest.approx(307.2)

    def test_sequential_beats_random(self):
        device = DramDevice(ddr5_l8())
        seq = device.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 8)
        rnd = device.sustained_bandwidth(AccessPattern.RANDOM_BLOCK, 1024, 8)
        assert seq > rnd

    def test_pointer_chase_uses_random_floor(self):
        device = DramDevice(ddr5_l8())
        eff = device.efficiency(AccessPattern.POINTER_CHASE, 64, 1)
        assert eff == pytest.approx(0.38)

    def test_bigger_random_blocks_sustain_more(self):
        device = DramDevice(ddr5_l8())
        small = device.sustained_bandwidth(AccessPattern.RANDOM_BLOCK, 1024, 4)
        large = device.sustained_bandwidth(AccessPattern.RANDOM_BLOCK,
                                           64 * 1024, 4)
        assert large > small

    def test_zero_streams_rejected(self):
        with pytest.raises(ValueError):
            DramDevice(ddr5_l8()).efficiency(AccessPattern.SEQUENTIAL, 0, 0)

    def test_eight_channels_absorb_streams_better_than_one(self):
        """Same per-stream traffic: L8's per-channel mixing is 8x lighter."""
        wide = DramDevice(ddr5_l8())
        narrow = DramDevice(ddr5_l8().with_channels(1))
        eff_wide = wide.efficiency(AccessPattern.RANDOM_BLOCK, 16384, 16)
        eff_narrow = narrow.efficiency(AccessPattern.RANDOM_BLOCK, 16384, 16)
        assert eff_wide > eff_narrow

    def test_write_penalty_applies_to_write_fraction(self):
        device = DramDevice(ddr5_l8())
        reads = device.efficiency(AccessPattern.SEQUENTIAL, 0, 8)
        writes = device.efficiency(AccessPattern.SEQUENTIAL, 0, 8,
                                   write_fraction=1.0)
        assert writes == pytest.approx(reads * (1 - 0.235))

    def test_l8_load_and_ntstore_ceilings_match_paper(self):
        """Fig 3a anchors: loads 221 GB/s, nt-stores 170 GB/s."""
        device = DramDevice(ddr5_l8())
        load = device.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 26)
        ntst = device.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 16,
                                          write_fraction=1.0)
        assert units.to_gb_per_s(load) == pytest.approx(221.0, abs=2.0)
        assert units.to_gb_per_s(ntst) == pytest.approx(170.0, abs=3.0)


class TestMemoryController:
    """Channel scaling as the memory controller sees it: a backend's
    channel count and its device's sustained bandwidth."""

    def test_channel_count(self):
        assert MemoryBackend("L8", DramDevice(ddr5_l8())).channel_count == 8
        assert MemoryBackend("X1", DramDevice(ddr4_x1())).channel_count == 1

    def test_sustained_bandwidth_scales_with_channels(self):
        l8 = DramDevice(ddr5_l8())
        l1 = DramDevice(ddr5_l8().with_channels(1))
        bw8 = l8.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 8)
        bw1 = l1.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 8)
        assert bw8 > 5 * bw1

    def test_ddr4_sequential_approaches_theoretical(self):
        """Fig 3b: nt-store peak ~22 GB/s is near DDR4-2666's 21.3 GB/s."""
        device = DramDevice(ddr4_x1())
        bw = device.sustained_bandwidth(AccessPattern.SEQUENTIAL, 0, 1)
        assert units.to_gb_per_s(bw) == pytest.approx(20.7, abs=1.0)


class TestMemoryBackend:
    def test_idle_latencies_compose_extras(self):
        backend = MemoryBackend("DDR5-R1",
                                DramDevice(ddr5_l8().with_channels(1)),
                                extra_read_ns=120.0, extra_write_ns=100.0)
        assert backend.idle_read_ns() == pytest.approx(52.0 + 120.0)
        assert backend.idle_write_ns() == pytest.approx(52.0 + 100.0)

    def test_link_ceiling_caps_bus(self):
        backend = MemoryBackend("capped", DramDevice(ddr5_l8()),
                                link_bandwidth=units.gb_per_s(10.0))
        bw = backend.bus_ceiling(AccessPattern.SEQUENTIAL, 0, 8)
        assert units.to_gb_per_s(bw) == pytest.approx(10.0)

    def test_plain_dram_has_no_concurrency_derate(self):
        backend = MemoryBackend("DDR5-L8", DramDevice(ddr5_l8()))
        assert backend.concurrency_derate(readers=32, writers=32,
                                          nt_writers=32) == 1.0
