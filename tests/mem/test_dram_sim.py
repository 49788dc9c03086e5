"""Bank-level DRAM simulation validates the analytic efficiency story."""

from dataclasses import replace

import numpy as np
import pytest

from repro.errors import DeviceError
from repro.mem.banks import (
    Bank,
    DdrTimings,
    ddr4_2666_timings,
    ddr5_4800_timings,
)
from repro.mem.dram_sim import DramChannelSim
from repro.sim.rng import substream


def sequential_stream(num_lines: int) -> np.ndarray:
    return np.arange(num_lines, dtype=np.int64)


def random_stream(num_lines: int, *, footprint_lines: int,
                  seed: int = 23) -> np.ndarray:
    rng = substream(f"dram-sim-{seed}", seed)
    return rng.integers(0, footprint_lines, size=num_lines, dtype=np.int64)


def sequential_efficiency(timings: DdrTimings,
                          num_lines: int = 8192) -> float:
    """Achieved fraction of peak for one sequential stream."""
    return DramChannelSim(timings).replay(
        sequential_stream(num_lines)).efficiency(timings)


def random_efficiency(timings: DdrTimings, num_lines: int = 8192,
                      footprint_lines: int = 1 << 20) -> float:
    """Achieved fraction of peak for uniformly random lines."""
    return DramChannelSim(timings).replay(random_stream(
        num_lines, footprint_lines=footprint_lines)).efficiency(timings)


class TestTimings:
    def test_burst_time(self):
        # BL8 at 4800 MT/s: 8 beats / 4800e6 = 1.67 ns.
        assert ddr5_4800_timings().burst_ns == pytest.approx(1.667,
                                                             abs=0.01)

    def test_peak_matches_units_helper(self):
        from repro.units import ddr_peak_bandwidth
        timings = ddr5_4800_timings()
        assert timings.peak_bandwidth == ddr_peak_bandwidth(4800, 1)

    def test_row_geometry(self):
        assert ddr5_4800_timings().lines_per_row == 128

    def test_validation(self):
        with pytest.raises(DeviceError):
            DdrTimings("bad", transfer_mt_s=0, banks=16, trcd_ns=1,
                       trp_ns=1, tcl_ns=1, tras_ns=1, tfaw_ns=1)
        with pytest.raises(DeviceError):
            DdrTimings("bad", transfer_mt_s=4800, banks=16, trcd_ns=-1,
                       trp_ns=1, tcl_ns=1, tras_ns=1, tfaw_ns=1)


class TestBank:
    def test_row_hit_is_cheaper_than_miss(self):
        timings = ddr5_4800_timings()
        bank = Bank(timings, 0)
        miss_at, hit = bank.access(row=1, now=0.0)
        assert not hit
        follow_at, hit2 = bank.access(row=1, now=bank.busy_until)
        assert hit2
        assert follow_at - bank.busy_until < miss_at  # hit path shorter

    def test_row_conflict_pays_precharge(self):
        timings = ddr5_4800_timings()
        bank = Bank(timings, 0)
        bank.access(row=1, now=0.0)
        conflict_at, hit = bank.access(row=2, now=1000.0)
        assert not hit
        # precharge + activate + CAS after the issue point.
        assert conflict_at >= 1000.0 + timings.trp_ns + timings.trcd_ns

    def test_hit_miss_counters(self):
        bank = Bank(ddr5_4800_timings(), 0)
        bank.access(row=1, now=0.0)
        bank.access(row=1, now=100.0)
        bank.access(row=2, now=200.0)
        assert bank.row_hits == 1
        assert bank.row_misses == 2


class TestChannelSim:
    def test_sequential_stream_has_high_row_hit_rate(self):
        sim = DramChannelSim(ddr5_4800_timings())
        result = sim.replay(sequential_stream(4096))
        assert result.row_hit_rate > 0.95

    def test_random_stream_has_near_zero_hit_rate(self):
        sim = DramChannelSim(ddr5_4800_timings())
        result = sim.replay(random_stream(4096,
                                          footprint_lines=1 << 20))
        assert result.row_hit_rate < 0.05

    def test_sequential_efficiency_is_high(self):
        for timings in (ddr5_4800_timings(), ddr4_2666_timings()):
            eff = sequential_efficiency(timings)
            assert 0.70 <= eff <= 1.0

    def test_random_efficiency_is_much_lower(self):
        """The simulated gap grounds the calibrated sequential/random
        efficiency split the analytic model uses."""
        for timings in (ddr5_4800_timings(), ddr4_2666_timings()):
            seq = sequential_efficiency(timings)
            rnd = random_efficiency(timings)
            assert rnd < 0.7 * seq
            assert 0.25 <= rnd <= 0.65

    def test_tfaw_throttles_random_traffic(self):
        """Doubling the activate window cuts random bandwidth."""
        base = ddr5_4800_timings()
        slow = replace(base, tfaw_ns=base.tfaw_ns * 2)
        fast_eff = random_efficiency(base)
        slow_eff = random_efficiency(slow)
        assert slow_eff < 0.7 * fast_eff

    def test_tfaw_irrelevant_for_sequential(self):
        """Row hits need no activates — tFAW cannot touch streaming."""
        base = ddr5_4800_timings()
        slow = replace(base, tfaw_ns=base.tfaw_ns * 4)
        assert sequential_efficiency(slow) == \
            pytest.approx(sequential_efficiency(base), rel=0.02)

    def test_address_mapping_keeps_rows_contiguous(self):
        sim = DramChannelSim(ddr5_4800_timings())
        bank0, row0 = sim._map(0)
        bank1, row1 = sim._map(127)       # same 8 KiB row
        bank2, row2 = sim._map(128)       # next row, next bank
        assert (bank0, row0) == (bank1, row1)
        assert bank2 != bank0

    def test_empty_stream_rejected(self):
        with pytest.raises(DeviceError):
            DramChannelSim(ddr5_4800_timings()).replay(
                np.array([], dtype=np.int64))

    def test_multistream_interleave_shape(self):
        stream = DramChannelSim.interleaved_streams(2,
                                                    lines_per_thread=3)
        # Round-robin: t0.l0, t1.l0, t0.l1, t1.l1, ...
        assert stream[0] < stream[1]
        assert stream[2] == stream[0] + 1
        assert len(stream) == 6

    def test_bank_parallelism_helps_until_banks_exhausted(self):
        """§4.3.1's mixing observation, derived: a few streams exploit
        bank parallelism, but once threads exceed the bank count the
        controller sees 'requests with fewer patterns' and row locality
        collapses."""
        sim = DramChannelSim(ddr4_2666_timings())       # 16 banks
        few = sim.measured_multistream_efficiency(8, lines_per_thread=2048)
        at_banks = sim.measured_multistream_efficiency(
            16, lines_per_thread=1024)
        beyond = sim.measured_multistream_efficiency(
            32, lines_per_thread=512)
        assert few >= 0.85
        assert at_banks >= 0.85
        assert beyond < 0.7 * at_banks

    def test_more_banks_tolerate_more_streams(self):
        """DDR5's 32 banks absorb a thread count that thrashes DDR4."""
        ddr4 = DramChannelSim(ddr4_2666_timings()) \
            .measured_multistream_efficiency(24, lines_per_thread=512)
        ddr5 = DramChannelSim(ddr5_4800_timings()) \
            .measured_multistream_efficiency(24, lines_per_thread=512)
        assert ddr5 > ddr4

    def test_multistream_validation(self):
        with pytest.raises(DeviceError):
            DramChannelSim.interleaved_streams(0, lines_per_thread=1)
        with pytest.raises(DeviceError):
            DramChannelSim.interleaved_streams(1, lines_per_thread=0)

    def test_ddr4_slower_than_ddr5_absolute(self):
        ddr5 = DramChannelSim(ddr5_4800_timings()).replay(
            sequential_stream(4096))
        ddr4 = DramChannelSim(ddr4_2666_timings()).replay(
            sequential_stream(4096))
        assert ddr4.bandwidth < ddr5.bandwidth
