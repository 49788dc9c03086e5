"""Percentile estimation and rate metering."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.sim import LatencyRecorder, RateMeter, percentile
from repro.sim.rng import decision_uniform, decision_uniforms


class TestPercentile:
    def test_single_sample(self):
        assert percentile([5.0], 99.0) == 5.0

    def test_median_of_odd_list(self):
        assert percentile([1.0, 2.0, 3.0], 50.0) == 2.0

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 50.0) == 5.0

    def test_p0_and_p100_are_extremes(self):
        data = [3.0, 1.0, 7.0, 5.0]
        assert percentile(data, 0.0) == 1.0
        assert percentile(data, 100.0) == 7.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50.0)

    def test_out_of_range_pct_rejected(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=2,
                    max_size=200),
           st.floats(min_value=0, max_value=100))
    def test_matches_numpy_linear(self, data, pct):
        ours = percentile(data, pct)
        theirs = float(np.percentile(np.array(data), pct, method="linear"))
        assert ours == pytest.approx(theirs, rel=1e-9, abs=1e-9)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), min_size=1,
                    max_size=100))
    def test_monotone_in_pct(self, data):
        # Allow one ulp of slack: interpolating between two equal values can
        # round a hair below the exact value.
        p50, p99 = percentile(data, 50.0), percentile(data, 99.0)
        assert p50 <= p99 or math.isclose(p50, p99, rel_tol=1e-12)


class TestLatencyRecorder:
    def test_summary(self):
        rec = LatencyRecorder()
        for v in [10.0, 20.0, 30.0, 40.0]:
            rec.record(v)
        summary = rec.summary()
        assert summary["count"] == 4
        assert summary["mean_ns"] == 25.0
        assert summary["max_ns"] == 40.0
        assert summary["p50_ns"] == 25.0

    def test_negative_latency_rejected(self):
        with pytest.raises(ValueError):
            LatencyRecorder().record(-1.0)

    def test_nan_latency_rejected_by_name(self):
        rec = LatencyRecorder("host0-sojourn")
        for value in (5.0, 1.0):
            rec.record(value)
        with pytest.raises(ValueError, match="host0-sojourn.*NaN"):
            rec.record(float("nan"))
        assert rec.samples == [5.0, 1.0]
        assert rec.p50() == 3.0

    def test_extend_equals_a_record_loop(self):
        values = [float(v) for v in
                  np.random.default_rng(3).lognormal(8.0, 1.5, 500)]
        looped = LatencyRecorder("r")
        for value in values:
            looped.record(value)
        batched = LatencyRecorder("r")
        batched.extend(values[:200])
        batched.extend(values[200:])
        assert batched.samples == looped.samples
        assert batched.histogram._sum == looped.histogram._sum
        assert batched.histogram.bucket_counts() \
            == looped.histogram.bucket_counts()
        assert batched.summary() == looped.summary()

    @pytest.mark.parametrize("bad", [-1.0, float("nan")])
    def test_extend_rejects_bad_samples_by_name(self, bad):
        rec = LatencyRecorder("cluster-sojourn")
        rec.record(2.0)
        with pytest.raises(ValueError,
                           match="cluster-sojourn: negative or NaN"):
            rec.extend([1.0, bad, 3.0])
        assert rec.samples == [2.0]

    def test_extend_with_nothing_is_a_no_op(self):
        rec = LatencyRecorder()
        rec.extend([])
        assert len(rec) == 0
        rec.record(7.0)
        rec.extend([])
        assert rec.samples == [7.0] and rec.p99() == 7.0

    def test_empty_recorder_raises_on_stats(self):
        with pytest.raises(ValueError):
            LatencyRecorder().mean()

    def test_p99_dominated_by_tail(self):
        rec = LatencyRecorder()
        for _ in range(99):
            rec.record(1.0)
        rec.record(1000.0)
        assert rec.p99() > rec.p50()


class TestRateMeter:
    def test_bandwidth_over_window(self):
        meter = RateMeter()
        meter.add(nbytes=64_000_000_000, ops=1)  # 64 GB in 1 second
        assert meter.bandwidth(now_ns=1e9) == pytest.approx(64e9)

    def test_throughput(self):
        meter = RateMeter()
        meter.add(nbytes=0, ops=500)
        assert meter.throughput(now_ns=1e9) == pytest.approx(500.0)

    def test_reset_starts_new_window(self):
        meter = RateMeter()
        meter.add(nbytes=100, ops=1)
        meter.reset(now_ns=1e9)
        meter.add(nbytes=64, ops=1)
        assert meter.bandwidth(now_ns=2e9) == pytest.approx(64.0)

    def test_zero_window_rejected(self):
        meter = RateMeter()
        meter.add(nbytes=1, ops=1)
        with pytest.raises(ValueError):
            meter.bandwidth(now_ns=0.0)

    def test_negative_add_rejected(self):
        with pytest.raises(ValueError):
            RateMeter().add(nbytes=-1)


class TestWindowing:
    def test_width_partitions_span_evenly(self):
        from repro.sim import window_width
        assert window_width(1e9, 4) == pytest.approx(0.25e9)

    def test_degenerate_span_gets_unit_width(self):
        from repro.sim import window_width
        assert window_width(0.0, 4) == 1.0
        # Subnormal spans: the width, or the width in seconds that a
        # RateMeter divides by, underflows to zero.
        assert window_width(5e-324, 3) == 1.0
        assert window_width(5e-324, 1) == 1.0

    def test_slot_assignment_and_right_closure(self):
        from repro.sim import window_slot
        assert window_slot(0.0, 250.0, 4) == 0
        assert window_slot(749.9, 250.0, 4) == 2
        # The last window is closed on the right: a timestamp at the
        # span end (or past it via float rounding) stays in range.
        assert window_slot(1000.0, 250.0, 4) == 3
        assert window_slot(1000.1, 250.0, 4) == 3

    def test_non_positive_count_rejected(self):
        from repro.sim import window_slot, window_width
        with pytest.raises(ValueError):
            window_width(1e9, 0)
        with pytest.raises(ValueError):
            window_slot(0.0, 1.0, 0)


class TestSubstream:
    def test_same_name_same_stream(self):
        from repro.sim import substream
        a = substream("arrivals").random(5)
        b = substream("arrivals").random(5)
        assert np.array_equal(a, b)

    def test_distinct_names_distinct_streams(self):
        from repro.sim import substream
        a = substream("arrivals").random(5)
        b = substream("keys").random(5)
        assert not np.array_equal(a, b)

    def test_seed_changes_stream(self):
        from repro.sim import substream
        a = substream("arrivals", seed=1).random(5)
        b = substream("arrivals", seed=2).random(5)
        assert not np.array_equal(a, b)

    def test_empty_name_rejected(self):
        from repro.sim import substream
        with pytest.raises(ValueError):
            substream("")


class TestDecisionUniforms:
    def test_batch_equals_one_draw_per_key(self):
        keys = [0, 1, 7, 123_456, 10**12, -5]
        for seed, prefix in ((1, ("resident", 0)), (7, ("resident", 3)),
                             (0x5EED, ("s",))):
            assert decision_uniforms(seed, *prefix, keys=keys) == [
                decision_uniform(seed, *prefix, key) for key in keys]

    def test_empty_batch(self):
        assert decision_uniforms(1, "resident", 0, keys=[]) == []
