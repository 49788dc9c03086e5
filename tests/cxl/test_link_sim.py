"""The credit-based link DES cross-validates the analytic ceilings."""

import pytest

from repro.cxl import (CreditedLinkSim, CxlPort, read_transaction,
                       write_transaction)
from repro.errors import SimulationError
from repro.faults import FaultPlan


def link_isolated_sim(**overrides) -> CreditedLinkSim:
    """Device made negligible so the link is the only constraint."""
    params = dict(device_service_ns=1.0, device_parallelism=64,
                  request_credits=64)
    params.update(overrides)
    return CreditedLinkSim(CxlPort(), **params)


def crc_plan(rate: float, seed: int = 5) -> FaultPlan:
    """A CRC-only fault plan: each flit independently fails CRC with
    probability ``rate`` and is retransmitted."""
    return FaultPlan(crc_rate=rate, seed=seed)


class TestLinkIsolated:
    def test_read_bandwidth_matches_analytic_ceiling(self):
        """The DES derives the 64/136 DRS framing ceiling the analytic
        model asserts."""
        sim = link_isolated_sim()
        achieved = sim.read_bandwidth()
        ceiling = CxlPort().data_bandwidth_ceiling(slots_per_line=5)
        assert achieved == pytest.approx(ceiling, rel=0.05)
        assert achieved <= ceiling

    def test_write_bandwidth_mirrors_read(self):
        """Writes ship data M2S instead of S2M — same framing cost."""
        sim = link_isolated_sim()
        writes = sim.run(write_transaction(), transactions=2000, mlp=64)
        assert writes.app_bandwidth == pytest.approx(
            sim.read_bandwidth(), rel=0.02)

    def test_single_outstanding_request_measures_latency(self):
        """mlp=1 degenerates to a latency test: ~2 hops + service."""
        sim = CreditedLinkSim(CxlPort(), device_service_ns=130.0,
                              device_parallelism=8)
        result = sim.run(read_transaction(), transactions=100, mlp=1)
        per_txn = result.elapsed_ns / result.completed
        hop = CxlPort().phy.config.hop_latency_ns
        assert per_txn > 2 * hop + 130.0
        assert per_txn < 2 * hop + 130.0 + 50.0   # + serialization only

    def test_bandwidth_grows_with_mlp_until_link_bound(self):
        sim = link_isolated_sim()
        low = sim.read_bandwidth(mlp=2)
        high = sim.read_bandwidth(mlp=64)
        assert high > 3 * low


class TestDeviceBound:
    def test_slow_device_becomes_bottleneck(self):
        fast_device = link_isolated_sim()
        slow_device = CreditedLinkSim(CxlPort(), device_service_ns=130.0,
                                      device_parallelism=8,
                                      request_credits=64)
        assert slow_device.read_bandwidth() < 0.5 * \
            fast_device.read_bandwidth()

    def test_device_parallelism_helps(self):
        narrow = CreditedLinkSim(CxlPort(), device_service_ns=130.0,
                                 device_parallelism=4,
                                 request_credits=64)
        wide = CreditedLinkSim(CxlPort(), device_service_ns=130.0,
                               device_parallelism=16,
                               request_credits=64)
        assert wide.read_bandwidth() > 2 * narrow.read_bandwidth()


class TestCredits:
    def test_few_credits_throttle_throughput(self):
        starved = link_isolated_sim(request_credits=2,
                                    device_service_ns=130.0)
        flush = link_isolated_sim(request_credits=64,
                                  device_service_ns=130.0)
        assert starved.read_bandwidth() < 0.5 * flush.read_bandwidth()

    def test_credits_bound_outstanding_work(self):
        """With C credits, at most C transactions are in flight — the
        run still completes (conservation, no lost credits)."""
        sim = link_isolated_sim(request_credits=3)
        result = sim.run(read_transaction(), transactions=500, mlp=64)
        assert result.completed == 500


class TestFailureInjection:
    def test_error_free_link_is_default(self):
        sim = link_isolated_sim()
        assert sim.fault_plan is None

    def test_crc_errors_cost_bandwidth(self):
        clean = link_isolated_sim()
        noisy = link_isolated_sim(fault_plan=crc_plan(0.2))
        assert noisy.read_bandwidth() < 0.95 * clean.read_bandwidth()

    def test_degradation_scales_with_error_rate(self):
        mild = link_isolated_sim(fault_plan=crc_plan(0.05)).read_bandwidth()
        severe = link_isolated_sim(fault_plan=crc_plan(0.4)).read_bandwidth()
        assert severe < mild

    def test_all_transactions_still_complete(self):
        """Retry is lossless: errors cost time, never data."""
        sim = link_isolated_sim(fault_plan=crc_plan(0.3))
        result = sim.run(read_transaction(), transactions=400, mlp=16)
        assert result.completed == 400

    def test_expected_overhead_matches_geometric_model(self):
        """At rate p the per-flit sends average 1/(1-p)."""
        rate = 0.25
        clean = link_isolated_sim().read_bandwidth()
        noisy = link_isolated_sim(
            fault_plan=crc_plan(rate, seed=9)).read_bandwidth()
        assert noisy == pytest.approx(clean * (1 - rate), rel=0.1)


class TestValidation:
    def test_bad_parameters_rejected(self):
        with pytest.raises(SimulationError):
            CreditedLinkSim(CxlPort(), device_service_ns=-1.0)
        with pytest.raises(SimulationError):
            CreditedLinkSim(CxlPort(), device_service_ns=1.0,
                            device_parallelism=0)
        with pytest.raises(SimulationError):
            CreditedLinkSim(CxlPort(), device_service_ns=1.0,
                            request_credits=0)

    def test_zero_transactions_rejected(self):
        with pytest.raises(SimulationError):
            link_isolated_sim().run(read_transaction(), transactions=0,
                                    mlp=1)

    @pytest.mark.parametrize("service_ns", [float("nan"), float("inf")])
    def test_non_finite_service_time_rejected_by_name(self, service_ns):
        with pytest.raises(SimulationError, match="device_service_ns"):
            CreditedLinkSim(CxlPort(), device_service_ns=service_ns)

    @pytest.mark.parametrize("field, value", [
        ("transactions", 10.0), ("transactions", True), ("mlp", 2.5),
        ("mlp", float("nan")),
    ])
    def test_non_integer_counts_rejected_by_name(self, field, value):
        counts = {"transactions": 10, "mlp": 2, field: value}
        with pytest.raises(SimulationError, match=field):
            link_isolated_sim().run(read_transaction(), **counts)

    def test_conservation(self):
        """Every launched transaction completes exactly once."""
        sim = link_isolated_sim()
        result = sim.run(read_transaction(), transactions=777, mlp=13)
        assert result.completed == 777
        assert result.payload_bytes == 777 * 64
