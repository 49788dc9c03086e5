"""FaultPlan: validation, scaling, parsing, serialization."""

import pickle

import pytest

from repro.errors import FaultError
from repro.faults import FaultPlan, ZERO_FAULTS


class TestValidation:
    def test_defaults_are_inactive(self):
        assert not FaultPlan().active
        assert ZERO_FAULTS == FaultPlan()

    @pytest.mark.parametrize("field", ["crc_rate", "poison_rate",
                                       "timeout_rate", "stall_rate"])
    def test_rates_must_be_probabilities(self, field):
        with pytest.raises(FaultError):
            FaultPlan(**{field: 1.0})
        with pytest.raises(FaultError):
            FaultPlan(**{field: -0.1})

    @pytest.mark.parametrize("field", ["stall_ns", "timeout_ns",
                                       "retry_backoff_ns"])
    def test_durations_must_be_non_negative(self, field):
        with pytest.raises(FaultError):
            FaultPlan(**{field: -1.0})

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("field", ["stall_ns", "timeout_ns",
                                       "retry_backoff_ns"])
    def test_durations_must_be_finite(self, field, value):
        with pytest.raises(FaultError, match=f"{field} must be finite"):
            FaultPlan(**{field: value})

    @pytest.mark.parametrize("field", ["link_width_fraction",
                                       "link_speed_fraction"])
    def test_link_fractions_in_unit_interval(self, field):
        with pytest.raises(FaultError):
            FaultPlan(**{field: 0.0})
        with pytest.raises(FaultError):
            FaultPlan(**{field: 1.5})

    def test_max_retries_at_least_one(self):
        with pytest.raises(FaultError):
            FaultPlan(max_retries=0)


class TestDerived:
    def test_any_rate_activates(self):
        assert FaultPlan(crc_rate=0.01).active
        assert FaultPlan(stall_rate=0.5).active

    def test_degraded_link_activates(self):
        plan = FaultPlan(link_width_fraction=0.5)
        assert plan.active
        assert plan.link_slowdown == pytest.approx(2.0)

    def test_link_slowdown_compounds_width_and_speed(self):
        plan = FaultPlan(link_width_fraction=0.5,
                         link_speed_fraction=0.5)
        assert plan.link_slowdown == pytest.approx(4.0)

    def test_scaled_multiplies_rates_only(self):
        base = FaultPlan(crc_rate=0.01, poison_rate=0.002,
                         stall_ns=123.0, seed=9)
        doubled = base.scaled(2.0)
        assert doubled.crc_rate == pytest.approx(0.02)
        assert doubled.poison_rate == pytest.approx(0.004)
        assert doubled.stall_ns == 123.0
        assert doubled.seed == 9

    def test_scaled_zero_is_inactive(self):
        assert not FaultPlan(crc_rate=0.5).scaled(0.0).active

    def test_scaled_caps_below_one(self):
        assert FaultPlan(crc_rate=0.5).scaled(100.0).crc_rate < 1.0

    def test_scaled_rejects_negative(self):
        with pytest.raises(FaultError):
            FaultPlan().scaled(-1.0)


class TestSerialization:
    def test_dict_round_trip(self):
        plan = FaultPlan(crc_rate=0.01, timeout_ns=999.0, seed=4)
        assert FaultPlan.from_dict(plan.to_dict()) == plan

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(FaultError):
            FaultPlan.from_dict({"crc_rate": 0.1, "bogus": 1})

    def test_pickle_round_trip(self):
        plan = FaultPlan(poison_rate=0.01, link_width_fraction=0.5)
        assert pickle.loads(pickle.dumps(plan)) == plan

    def test_parse(self):
        plan = FaultPlan.parse(
            "crc=0.01, poison=0.002, stall-ns=300, retries=4, "
            "width=0.5, seed=7")
        assert plan == FaultPlan(crc_rate=0.01, poison_rate=0.002,
                                 stall_ns=300.0, max_retries=4,
                                 link_width_fraction=0.5, seed=7)

    def test_parse_empty_spec_is_zero_plan(self):
        assert FaultPlan.parse("") == ZERO_FAULTS

    def test_parse_rejects_unknown_knob(self):
        with pytest.raises(FaultError):
            FaultPlan.parse("bogus=1")

    def test_parse_rejects_bad_value(self):
        with pytest.raises(FaultError):
            FaultPlan.parse("crc=lots")

    def test_parse_rejects_bare_word(self):
        with pytest.raises(FaultError):
            FaultPlan.parse("crc")

    def test_parse_rejects_a_repeated_key(self):
        with pytest.raises(FaultError, match="repeated key 'crc'"):
            FaultPlan.parse("crc=0.01,crc=0.02")
