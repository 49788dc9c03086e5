"""Degraded-mode behavior of the simulators and the analytic backend.

The contract under test (docs/FAULTS.md): faults perturb latency and
bandwidth, never correctness — every injected fault is recovered and
every request completes; an inactive plan is byte-identical to no plan.
"""

import pytest

from repro import build_system, combined_testbed
from repro.cxl.device import build_cxl_backend
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.cxl.link_sim import CreditedLinkSim
from repro.cxl.messages import read_transaction
from repro.cxl.port import CxlPort
from repro.faults import FaultPlan, ZERO_FAULTS
from repro.mem.dram import AccessPattern

PLAN = FaultPlan(crc_rate=0.02, poison_rate=0.005, timeout_rate=0.002,
                 stall_rate=0.02, stall_ns=400.0, seed=11)


class TestReadSim:
    def test_faults_inflate_tail_latency(self):
        healthy = CxlEndToEndSim().run(threads=4, lines_per_thread=400)
        faulty = CxlEndToEndSim(fault_plan=PLAN).run(
            threads=4, lines_per_thread=400)
        assert faulty.p99_ns > healthy.p99_ns
        assert faulty.gb_per_s < healthy.gb_per_s

    def test_all_faults_recovered_all_reads_complete(self):
        result = CxlEndToEndSim(fault_plan=PLAN).run(
            threads=4, lines_per_thread=400)
        assert result.faults_injected == result.faults_recovered > 0
        assert result.completed == 4 * 400

    def test_zero_plan_identical_to_no_plan(self):
        healthy = CxlEndToEndSim().run(threads=2, lines_per_thread=300)
        zeroed = CxlEndToEndSim(fault_plan=ZERO_FAULTS).run(
            threads=2, lines_per_thread=300)
        assert healthy == zeroed

    def test_degraded_link_slows_without_injecting(self):
        healthy = CxlEndToEndSim().run(threads=2, lines_per_thread=300)
        narrow = CxlEndToEndSim(
            fault_plan=FaultPlan(link_width_fraction=0.5)).run(
            threads=2, lines_per_thread=300)
        assert narrow.gb_per_s < healthy.gb_per_s
        assert narrow.faults_injected == 0

    def test_timeout_storm_still_completes(self):
        plan = FaultPlan(timeout_rate=0.4, timeout_ns=500.0, seed=3)
        result = CxlEndToEndSim(fault_plan=plan).run(
            threads=2, lines_per_thread=200)
        assert result.completed == 2 * 200
        assert result.faults_injected == result.faults_recovered


class TestWriteSim:
    def test_faults_cost_bandwidth_not_writes(self):
        healthy = CxlWriteEndToEndSim().run(threads=2,
                                            lines_per_thread=300)
        faulty = CxlWriteEndToEndSim(fault_plan=PLAN).run(
            threads=2, lines_per_thread=300)
        assert faulty.gb_per_s < healthy.gb_per_s
        assert faulty.completed == 2 * 300
        assert faulty.faults_injected == faulty.faults_recovered > 0

    def test_zero_plan_identical_to_no_plan(self):
        healthy = CxlWriteEndToEndSim().run(threads=2,
                                            lines_per_thread=300)
        zeroed = CxlWriteEndToEndSim(fault_plan=ZERO_FAULTS).run(
            threads=2, lines_per_thread=300)
        assert healthy == zeroed


class TestLinkSim:
    def test_faulty_run_recovers_everything(self):
        sim = CreditedLinkSim(CxlPort(), device_service_ns=100.0,
                              fault_plan=PLAN)
        result = sim.run(read_transaction(), transactions=400, mlp=16)
        assert result.completed == 400
        assert result.faults_injected == result.faults_recovered > 0

    def test_degraded_width_halves_wire_bound_ceiling(self):
        # Enough credits/MLP that the wire is the only bottleneck.
        healthy = CreditedLinkSim(CxlPort(), device_service_ns=0.0,
                                  device_parallelism=64,
                                  request_credits=256)
        narrow = CreditedLinkSim(
            CxlPort(), device_service_ns=0.0, device_parallelism=64,
            request_credits=256,
            fault_plan=FaultPlan(link_width_fraction=0.5))
        ratio = narrow.read_bandwidth(mlp=256) \
            / healthy.read_bandwidth(mlp=256)
        assert ratio == pytest.approx(0.5, rel=0.05)


class TestAnalyticBackend:
    def test_fault_plan_derates_bandwidth_and_adds_latency(self):
        # The derate applies to the *combined* ceiling (bus_ceiling),
        # not just the wire: retries hold the device pipeline too, so
        # degradation bites even when DRAM, not the link, binds.
        config = combined_testbed().cxl
        healthy = build_cxl_backend(config)
        degraded = build_cxl_backend(config, fault_plan=PLAN)
        assert degraded.extra_read_ns > healthy.extra_read_ns
        assert degraded.link_bandwidth == healthy.link_bandwidth
        assert (degraded.bus_ceiling(AccessPattern.SEQUENTIAL, 64, 8)
                < healthy.bus_ceiling(AccessPattern.SEQUENTIAL, 64, 8))
        assert (degraded.bus_ceiling(AccessPattern.RANDOM_BLOCK, 256, 8)
                < healthy.bus_ceiling(AccessPattern.RANDOM_BLOCK, 256, 8))

    def test_zero_plan_changes_nothing(self):
        config = combined_testbed().cxl
        healthy = build_cxl_backend(config)
        zeroed = build_cxl_backend(config, fault_plan=ZERO_FAULTS)
        assert zeroed.extra_read_ns == healthy.extra_read_ns
        assert zeroed.link_bandwidth == healthy.link_bandwidth
        assert (zeroed.bus_ceiling(AccessPattern.SEQUENTIAL, 64, 8)
                == healthy.bus_ceiling(AccessPattern.SEQUENTIAL, 64, 8))

    def test_system_build_unaffected_by_module_import(self):
        # Importing repro.faults anywhere must not disturb the healthy
        # perfmodel: the paper experiments run with no plan at all.
        system = build_system(combined_testbed())
        assert system is not None
