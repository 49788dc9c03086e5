"""The generic ScenarioExperiment adapter: parallel byte-identity,
fault-plan scaling, cache-key folding, and device profiles."""

import pytest

from repro.experiments import REGISTRY
from repro.experiments.runner import (_run_ids, _suite_config,
                                      config_for, run_config)
from repro.scenarios import build_testbed, load_pack, parse_scenario
from repro.scenarios.adapter import _point_units, point_label
from repro.scenarios.spec import DeviceProfile

SCN = {scenario.name: scenario for scenario in load_pack()}


def run(name: str):
    """One in-process fast run of a shipped scenario."""
    return REGISTRY[SCN[name].experiment_id].run(fast=True)


class TestParallelIdentity:
    def test_serial_and_jobs2_are_byte_identical(self):
        # bursty-traffic: multiple segments per point AND a sweep axis,
        # so the unit list genuinely shards.
        serial = run("bursty-traffic")
        results, failures, _, _ = _run_ids(
            ["scn-bursty-traffic"], fast=True, jobs=2, use_cache=False,
            checkpoint=False)
        assert failures == {}
        (_, sharded), = results
        assert serial.render() == sharded.render()
        assert serial.to_dict() == sharded.to_dict()

    def test_two_runs_are_deterministic(self):
        assert run("steady-baseline").render() \
            == run("steady-baseline").render()

    def test_result_carries_series_and_checks(self):
        result = run("steady-baseline")
        assert result.experiment_id == "scn-steady-baseline"
        assert result.checks
        assert "points" in result.series
        assert "p99_us" in result.series["points"]


class TestFaultScaling:
    def test_severity_zero_runs_the_healthy_twin(self):
        scenario = SCN["fault-severity"]
        specs, _labels = _point_units(scenario, {"severity": 0.0},
                                      fast=True, fault_plan=None)
        _topo, sim_kwargs, _run, _ = specs[0]
        assert "fault_plans" not in sim_kwargs

    def test_severity_scales_every_rate(self):
        scenario = SCN["fault-severity"]
        specs, _labels = _point_units(scenario, {"severity": 3.0},
                                      fast=True, fault_plan=None)
        _topo, sim_kwargs, _run, _ = specs[0]
        plan = sim_kwargs["fault_plans"][0]
        base = scenario.faults.plan
        assert plan.stall_rate == pytest.approx(base.stall_rate * 3)
        assert plan.timeout_rate == pytest.approx(
            base.timeout_rate * 3)

    def test_cli_fault_plan_overrides_the_scenario_plan(self):
        from repro.faults import FaultPlan
        scenario = SCN["degraded-link"]
        override = FaultPlan(stall_rate=0.5, seed=99)
        specs, _labels = _point_units(scenario, {"qps": 80000.0},
                                      fast=True, fault_plan=override)
        _topo, sim_kwargs, _run, _ = specs[0]
        assert sim_kwargs["fault_plans"][0].stall_rate == 0.5

    def test_fault_monotone_scenario_passes(self):
        result = run("fault-severity")
        assert result.passed, [str(c) for c in result.checks
                               if not c.passed]
        assert any("fault severity" in check.claim
                   for check in result.checks)


class TestCacheKeyFolding:
    def test_registry_entry_carries_the_content_hash(self):
        scenario = SCN["steady-baseline"]
        extra = REGISTRY["scn-steady-baseline"].extra_config
        assert extra == (("scenario_sha", scenario.content_hash()),)

    def test_config_for_folds_extras(self):
        base = run_config(True)
        folded = config_for("scn-steady-baseline", base)
        assert folded["extra"]["scenario_sha"] == \
            SCN["steady-baseline"].content_hash()
        assert "extra" not in base

    def test_non_scenario_experiments_keep_historical_config(self):
        base = run_config(True)
        assert config_for("table1", base) is base

    def test_suite_config_adds_extras_only_when_present(self):
        base = run_config(True)
        assert _suite_config(["table1", "fig3"], base) is base
        suite = _suite_config(["table1", "scn-steady-baseline"], base)
        assert "scn-steady-baseline" in suite["extras"]

    def test_editing_the_document_changes_the_folded_key(self):
        scenario = SCN["steady-baseline"]
        edited = dict(scenario.to_dict())
        edited["description"] = "edited"
        assert parse_scenario(edited).content_hash() != \
            scenario.content_hash()


class TestPointLabels:
    def test_empty_point_is_the_experiment_id(self):
        assert point_label(SCN["fault-severity"], {}) == \
            "scn-fault-severity"

    def test_qps_renders_in_thousands(self):
        label = point_label(SCN["steady-baseline"], {"qps": 80000.0})
        assert label == "scn-steady-baseline[qps=80k]"

    def test_multiple_axes_join_with_commas(self):
        label = point_label(SCN["fault-severity"],
                            {"qps": 140000.0, "severity": 2.0})
        assert label == "scn-fault-severity[qps=140k,severity=2]"


class TestDeviceProfiles:
    def test_hetero_pool_alternates_asic_and_fpga(self):
        testbed = build_testbed(DeviceProfile(preset="hetero-pool",
                                              devices=2))
        penalties = [device.fpga_penalty_ns
                     for device in testbed.cxl_devices]
        assert len(penalties) == 2
        assert sum(penalty == 0.0 for penalty in penalties) == 1

    def test_hetero_asic_variant_flips_the_pair_order(self):
        fpga_first = build_testbed(
            DeviceProfile(preset="hetero-pool", devices=2))
        asic_first = build_testbed(
            DeviceProfile(preset="hetero-pool", variant="asic",
                          devices=2))
        assert fpga_first.cxl_devices[0].fpga_penalty_ns > 0.0
        assert asic_first.cxl_devices[0].fpga_penalty_ns == 0.0

    def test_pooled_preset_honors_device_count(self):
        testbed = build_testbed(DeviceProfile(preset="pooled",
                                              devices=3))
        assert len(testbed.cxl_devices) == 3

    def test_asic_variant_sheds_the_fpga_penalty(self):
        fpga = build_testbed(DeviceProfile(preset="combined"))
        asic = build_testbed(DeviceProfile(preset="combined",
                                           variant="asic"))
        assert fpga.cxl_devices[0].fpga_penalty_ns > 0.0
        assert asic.cxl_devices[0].fpga_penalty_ns == 0.0
        assert asic.name.endswith("-asic")

    def test_device_axis_switches_the_testbed(self):
        scenario = SCN["asic-vs-fpga"]
        specs_fpga, _ = _point_units(scenario, {"device": "fpga"},
                                     fast=True, fault_plan=None)
        specs_asic, _ = _point_units(scenario, {"device": "asic"},
                                     fast=True, fault_plan=None)
        fpga_testbed = specs_fpga[0][0]["testbed"]
        asic_testbed = specs_asic[0][0]["testbed"]
        assert fpga_testbed.name != asic_testbed.name
        assert asic_testbed.cxl_devices[0].fpga_penalty_ns == 0.0
