"""The §6 best-practices advisor and §6.1 classifier."""

import pytest

from repro.analysis.guidelines import (
    Advice,
    LatencyClass,
    WorkloadProfile,
    advise,
    classify,
)
from repro.analysis.series import Series
from repro.errors import WorkloadError


def redis_profile() -> WorkloadProfile:
    return WorkloadProfile("redis", LatencyClass.MICROSECONDS,
                           read_fraction=0.5, writer_threads=1)


def microservice_profile() -> WorkloadProfile:
    return WorkloadProfile("social-network", LatencyClass.MILLISECONDS,
                           read_fraction=0.85,
                           has_intermediate_compute=True)


def tiering_daemon_profile() -> WorkloadProfile:
    return WorkloadProfile("tier-daemon", LatencyClass.MILLISECONDS,
                           read_fraction=0.5,
                           bulk_transfer_bytes=2 * 1024 * 1024,
                           writer_threads=8, short_term_reuse=False)


def rules(profile) -> set[str]:
    return {advice.rule for advice in advise(profile)}


class TestAdvise:
    def test_us_latency_app_warned_off_pure_cxl(self):
        """§6: 'Avoid running application with us-level latency entirely
        on the CXL memory.'"""
        assert "avoid-pure-cxl" in rules(redis_profile())

    def test_microservice_recommended_for_offload(self):
        """§6: 'Microservice can be a good candidate for CXL memory
        offloading.'"""
        advice = rules(microservice_profile())
        assert "offload-to-cxl" in advice
        assert "avoid-pure-cxl" not in advice

    def test_tiering_daemon_gets_movement_guidance(self):
        """§6: nt-store/movdir64B + DSA + writer limits for bulk movers."""
        advice = rules(tiering_daemon_profile())
        assert {"nt-store", "use-dsa", "limit-writers"} <= advice

    def test_interleaving_always_recommended(self):
        """§6: interleaving applies across the board (baseline policy)."""
        for profile in (redis_profile(), microservice_profile(),
                        tiering_daemon_profile()):
            assert "interleave" in rules(profile)

    def test_few_writers_no_warning(self):
        assert "limit-writers" not in rules(redis_profile())

    def test_read_heavy_flagged_favorable(self):
        assert "read-heavy-target" in rules(microservice_profile())

    def test_advice_text_cites_sections(self):
        for advice in advise(tiering_daemon_profile()):
            assert "§" in advice.source
            assert str(advice).startswith(f"[{advice.rule}]")

    def test_bad_profile_rejected(self):
        with pytest.raises(WorkloadError):
            WorkloadProfile("x", LatencyClass.MICROSECONDS,
                            read_fraction=1.5)


class TestClassifier:
    def test_sublinear_curve_is_bandwidth_bound(self):
        curve = Series("snc", x=[8, 16, 32], y=[800.0, 1600.0, 1900.0])
        assert classify(curve) == "bandwidth-bound"

    def test_linear_curve_is_not_bound(self):
        curve = Series("dram", x=[8, 16, 32], y=[800.0, 1600.0, 3200.0])
        assert classify(curve) == "not-bound"

    def test_too_few_points_rejected(self):
        with pytest.raises(WorkloadError):
            classify(Series("s", x=[1, 2], y=[1.0, 2.0]))

    def test_dlrm_snc_curve_classifies_bandwidth_bound(self):
        """End-to-end: the Fig-9 SNC curve is §6.1 bandwidth-bound."""
        from repro import combined_testbed
        from repro.apps.dlrm import DlrmInferenceStudy
        study = DlrmInferenceStudy(combined_testbed())
        snc = study.curve("local", [8, 16, 32], snc=True)
        assert classify(snc) == "bandwidth-bound"
        dram = study.curve("local", [8, 16, 32])
        assert classify(dram) == "not-bound"
