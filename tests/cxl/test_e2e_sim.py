"""End-to-end CXL read DES: Fig 3b's shape from mechanism alone."""

import pytest

from repro.errors import SimulationError
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.units import ddr_peak_bandwidth


@pytest.fixture(scope="module")
def sweep():
    sim = CxlEndToEndSim()
    return sim.sweep([1, 2, 4, 8, 12, 16, 32], lines_per_thread=1000)


class TestLatencyBoundRegion:
    def test_low_thread_counts_scale_linearly(self, sweep):
        one = sweep[1].gb_per_s
        assert sweep[2].gb_per_s == pytest.approx(2 * one, rel=0.25)
        assert sweep[4].gb_per_s == pytest.approx(4 * one, rel=0.35)

    def test_per_thread_slope_is_latency_bound(self, sweep):
        """One thread's bandwidth ~ MLP x 64 B / round-trip latency."""
        sim = CxlEndToEndSim()
        hop = sim.port.phy.config.hop_latency_ns
        round_trip = 2 * (hop + sim.port.pack_ns) + sim.controller_ns \
            + sim.timings.tcl_ns + sim.timings.burst_ns
        expected = sim.mlp_per_thread * 64 / (round_trip / 1e9)
        assert sweep[1].app_bandwidth == pytest.approx(expected, rel=0.3)


class TestSaturation:
    def test_saturates_at_ddr4_pin_rate(self, sweep):
        """The plateau is the paper's grey dashed line (21.3 GB/s) —
        not a tuned constant, the simulated bus simply fills."""
        peak = max(result.gb_per_s for result in sweep.values())
        theoretical = ddr_peak_bandwidth(2666, 1) / 1e9
        assert peak == pytest.approx(theoretical, rel=0.05)
        assert peak <= theoretical

    def test_saturation_by_about_12_threads(self, sweep):
        """Fig 3b: 'attains its maximum bandwidth with approximately 8
        threads' — the sim saturates in the same neighborhood."""
        assert sweep[12].gb_per_s > 0.95 * sweep[32].gb_per_s
        assert sweep[4].gb_per_s < 0.6 * sweep[32].gb_per_s


class TestRowLocality:
    def test_sequential_streams_mostly_row_hit(self, sweep):
        assert sweep[1].row_hit_rate > 0.98

    def test_hit_rate_degrades_beyond_bank_count(self, sweep):
        """§4.3.1: more threads -> 'requests with fewer patterns' at the
        device's 16-bank DDR4."""
        assert sweep[32].row_hit_rate < sweep[8].row_hit_rate

    def test_closed_page_bounds_the_agilex_droop(self):
        """The measured 16.8 GB/s at high thread counts lies between
        this sim's open-page and closed-page controller regimes."""
        open_page = CxlEndToEndSim().run(threads=16,
                                         lines_per_thread=1000)
        closed = CxlEndToEndSim(closed_page=True).run(
            threads=16, lines_per_thread=1000)
        assert closed.gb_per_s < open_page.gb_per_s
        assert closed.gb_per_s < 16.8 < open_page.gb_per_s + 0.5


class TestWriteSim:
    """nt-store mechanics: the 2-thread anchor emerges, buffers matter."""

    def test_single_writer_is_issue_bound(self):
        """One thread paces at the WC drain rate (~10.7 GB/s analytic)."""
        from repro.cxl.e2e_sim import CxlWriteEndToEndSim
        result = CxlWriteEndToEndSim().run(threads=1,
                                           lines_per_thread=1200)
        assert result.gb_per_s == pytest.approx(10.7, rel=0.1)

    def test_two_writers_reach_the_pin_rate(self):
        """Fig 3b's nt-store anchor — '22 GB/s with only 2 threads,
        close to the theoretical max' — emerges from the mechanism."""
        from repro.cxl.e2e_sim import CxlWriteEndToEndSim
        result = CxlWriteEndToEndSim().run(threads=2,
                                           lines_per_thread=1200)
        theoretical = ddr_peak_bandwidth(2666, 1) / 1e9
        assert result.gb_per_s == pytest.approx(theoretical, rel=0.05)

    def test_shallow_buffer_collapses_throughput(self):
        """The §4.3.2 buffer story: credits gate posted writes, so a
        shallow device buffer starves the drain pipeline."""
        from repro.cxl.e2e_sim import CxlWriteEndToEndSim
        deep = CxlWriteEndToEndSim(buffer_entries=128).run(
            threads=8, lines_per_thread=1000)
        shallow = CxlWriteEndToEndSim(buffer_entries=16).run(
            threads=8, lines_per_thread=1000)
        tiny = CxlWriteEndToEndSim(buffer_entries=4).run(
            threads=8, lines_per_thread=1000)
        assert shallow.gb_per_s < 0.3 * deep.gb_per_s
        assert tiny.gb_per_s < shallow.gb_per_s

    def test_write_conservation(self):
        from repro.cxl.e2e_sim import CxlWriteEndToEndSim
        result = CxlWriteEndToEndSim().run(threads=3,
                                           lines_per_thread=400)
        assert result.completed == 1200

    def test_write_validation(self):
        from repro.cxl.e2e_sim import CxlWriteEndToEndSim
        with pytest.raises(SimulationError):
            CxlWriteEndToEndSim(buffer_entries=0)
        with pytest.raises(SimulationError):
            CxlWriteEndToEndSim(issue_gap_ns=0.0)
        with pytest.raises(SimulationError):
            CxlWriteEndToEndSim().run(threads=0)


class TestValidation:
    def test_conservation(self):
        result = CxlEndToEndSim().run(threads=3, lines_per_thread=200)
        assert result.completed == 600

    def test_bad_parameters(self):
        with pytest.raises(SimulationError):
            CxlEndToEndSim(mlp_per_thread=0)
        with pytest.raises(SimulationError):
            CxlEndToEndSim(controller_ns=-1.0)
        with pytest.raises(SimulationError):
            CxlEndToEndSim().run(threads=0)

    @pytest.mark.parametrize("sim_cls", [CxlEndToEndSim,
                                         CxlWriteEndToEndSim])
    @pytest.mark.parametrize("field", ["threads", "lines_per_thread"])
    @pytest.mark.parametrize("value", [0, -3, True, 2.5, float("nan"),
                                       float("inf"), "4"])
    def test_run_counts_must_be_positive_integers(self, sim_cls, field,
                                                  value):
        counts = {"threads": 2, "lines_per_thread": 10, field: value}
        with pytest.raises(SimulationError, match=field):
            sim_cls().run(**counts)

    @pytest.mark.parametrize("sim_cls, field", [
        (CxlEndToEndSim, "mlp_per_thread"),
        (CxlEndToEndSim, "region_lines"),
        (CxlWriteEndToEndSim, "buffer_entries"),
        (CxlWriteEndToEndSim, "region_lines"),
    ])
    @pytest.mark.parametrize("value", [0, -1, True, 2.5, float("nan")])
    def test_sizes_must_be_positive_integers(self, sim_cls, field, value):
        with pytest.raises(SimulationError, match=field):
            sim_cls(**{field: value})

    @pytest.mark.parametrize("sim_cls, field, value", [
        (CxlEndToEndSim, "controller_ns", float("nan")),
        (CxlEndToEndSim, "controller_ns", float("inf")),
        (CxlEndToEndSim, "controller_ns", -1.0),
        (CxlWriteEndToEndSim, "controller_ns", float("nan")),
        (CxlWriteEndToEndSim, "controller_ns", float("inf")),
        (CxlWriteEndToEndSim, "issue_gap_ns", float("nan")),
        (CxlWriteEndToEndSim, "issue_gap_ns", float("inf")),
        (CxlWriteEndToEndSim, "issue_gap_ns", 0.0),
    ])
    def test_latencies_must_be_finite(self, sim_cls, field, value):
        with pytest.raises(SimulationError, match=field):
            sim_cls(**{field: value})

    def test_deeper_mlp_raises_low_thread_bandwidth(self):
        shallow = CxlEndToEndSim(mlp_per_thread=4).run(
            threads=2, lines_per_thread=800)
        deep = CxlEndToEndSim(mlp_per_thread=16).run(
            threads=2, lines_per_thread=800)
        assert deep.gb_per_s > 2 * shallow.gb_per_s
