"""Counter/gauge/histogram semantics and the registry."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.errors import TelemetryError
from repro.telemetry import (
    Counter,
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    interpolate_percentile,
)


class TestCounter:
    def test_starts_at_zero(self):
        assert Counter("c").value == 0

    def test_inc_accumulates(self):
        counter = Counter("c")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(TelemetryError):
            Counter("c").inc(-1)


class TestCounterExactness:
    def test_sum_beyond_float53_stays_exact(self):
        # 2**53 is where float64 stops representing every integer.
        # Counters carry Python ints, so sums stay exact well past it.
        big = 2 ** 62
        counter = Counter("unit.ops")
        for _ in range(3):
            counter.inc(big)
            counter.inc(1)
        assert counter.value == 3 * big + 3
        assert isinstance(counter.value, int)

    def test_unit_increments_never_rounded_away(self):
        # The classic float failure: huge + 1 == huge. Int accumulation
        # must see every one of the small increments.
        counter = Counter("unit.ops")
        counter.inc(2 ** 53)
        for _ in range(10):
            counter.inc(1)
        assert counter.value == 2 ** 53 + 10

    def test_float_amounts_still_supported(self):
        counter = Counter("unit.bytes")
        counter.inc(0.5)
        counter.inc(2)
        assert counter.value == 2.5


class TestGauge:
    def test_set_and_add(self):
        gauge = Gauge("g")
        gauge.set(3.5)
        gauge.add(1.5)
        assert gauge.value == 5.0


class TestHistogram:
    def test_mean_and_extremes(self):
        hist = Histogram("h")
        for value in (10.0, 20.0, 30.0):
            hist.record(value)
        assert hist.count == 3
        assert hist.mean() == 20.0
        assert hist.min() == 10.0
        assert hist.max() == 30.0

    def test_percentiles(self):
        hist = Histogram("h")
        for value in range(1, 101):
            hist.record(float(value))
        assert hist.p50() == pytest.approx(50.5)
        assert hist.p99() == pytest.approx(
            float(np.percentile(np.arange(1.0, 101.0), 99,
                                method="linear")))

    def test_empty_stats_rejected(self):
        hist = Histogram("h")
        with pytest.raises(ValueError):
            hist.mean()
        with pytest.raises(ValueError):
            hist.p99()

    def test_sorted_cache_invalidated_on_record(self):
        # Interleave percentile queries with records: each query must
        # see every sample recorded so far, not a stale sorted cache.
        hist = Histogram("h")
        hist.record(10.0)
        assert hist.percentile(100.0) == 10.0
        hist.record(5.0)
        assert hist.percentile(0.0) == 5.0
        hist.record(20.0)
        assert hist.percentile(100.0) == 20.0

    def test_bucket_counts(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        # On-bound values belong to the bucket they bound (value <= bound).
        for value in (1.0, 5.0, 10.0, 50.0, 100.0, 500.0):
            hist.record(value)
        pairs = hist.bucket_counts()
        assert pairs == [(10.0, 3), (100.0, 2), (float("inf"), 1)]

    def test_nan_rejected_by_name(self):
        hist = Histogram("kv-sojourn", buckets=(10.0, 100.0))
        for value in (5.0, 1.0, 3.0):
            hist.record(value)
        with pytest.raises(TelemetryError, match="kv-sojourn.*NaN"):
            hist.record(float("nan"))
        assert hist.count == 3
        assert (hist.min(), hist.p50(), hist.max()) == (1.0, 3.0, 5.0)
        assert hist.bucket_counts() == [(10.0, 3), (100.0, 0),
                                        (float("inf"), 0)]

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=60),
           st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), max_size=60))
    def test_extend_equals_a_record_loop(self, head, batch):
        looped = Histogram("h", buckets=(10.0, 1e3, 1e5))
        batched = Histogram("h", buckets=(10.0, 1e3, 1e5))
        for value in head:
            looped.record(value)
            batched.record(value)
        if head:
            batched.p50()          # the extend must drop this cache
        for value in batch:
            looped.record(value)
        batched.extend(batch)
        assert batched.samples == looped.samples
        assert batched._sum == looped._sum        # bit-exact, in order
        assert batched.bucket_counts() == looped.bucket_counts()
        if looped.count:
            for pct in (0.0, 50.0, 99.0, 100.0):
                assert batched.percentile(pct) == looped.percentile(pct)
            assert batched.mean() == looped.mean()

    def test_extend_sum_is_sequential_not_compensated(self):
        values = [1.0, 1e16, 1.0, -1e16]
        looped = Histogram("h")
        for value in values:
            looped.record(value)
        batched = Histogram("h")
        batched.extend(values)
        assert batched._sum == looped._sum == 0.0
        # Compensated summation (math.fsum; sum() from Python 3.12 on)
        # would give 2.0 here.
        assert math.fsum(values) == 2.0

    def test_extend_overflow_lands_past_the_last_bound(self):
        hist = Histogram("h", buckets=(10.0, 100.0))
        hist.extend([1.0, 10.0, 100.0, 101.0, 1e9])
        assert hist.bucket_counts() == [(10.0, 2), (100.0, 1),
                                        (float("inf"), 2)]

    def test_extend_rejects_nan_by_name_before_adding(self):
        hist = Histogram("kv-sojourn", buckets=(10.0, 100.0))
        hist.record(5.0)
        with pytest.raises(TelemetryError, match="kv-sojourn.*NaN"):
            hist.extend([1.0, float("nan"), 3.0])
        assert hist.samples == [5.0]
        assert hist.bucket_counts() == [(10.0, 1), (100.0, 0),
                                        (float("inf"), 0)]

    def test_percentiles_stay_fresh_across_extend_and_record(self):
        hist = Histogram("h")
        hist.extend([30.0, 10.0, 20.0])       # seeds the sorted cache
        assert (hist.min(), hist.p50(), hist.max()) == (10.0, 20.0, 30.0)
        hist.record(5.0)
        assert hist.min() == 5.0
        hist.extend([40.0, 1.0])
        assert (hist.min(), hist.max()) == (1.0, 40.0)
        assert hist.samples == [30.0, 10.0, 20.0, 5.0, 40.0, 1.0]

    def test_extend_with_nothing_is_a_no_op(self):
        hist = Histogram("h")
        hist.record(4.0)
        assert hist.p50() == 4.0
        hist.extend([])
        assert hist.samples == [4.0]
        assert hist.mean() == 4.0 and hist.p50() == 4.0

    def test_non_increasing_buckets_rejected(self):
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(10.0, 10.0))
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(100.0, 10.0))

    @given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=1,
                    max_size=100),
           st.floats(min_value=0, max_value=100))
    def test_percentile_matches_numpy(self, data, pct):
        hist = Histogram("h")
        for value in data:
            hist.record(value)
        theirs = float(np.percentile(np.array(data), pct,
                                     method="linear"))
        assert hist.percentile(pct) == pytest.approx(theirs, rel=1e-9,
                                                     abs=1e-9)


class TestInterpolatePercentile:
    def test_requires_sorted_nonempty(self):
        with pytest.raises(ValueError):
            interpolate_percentile([], 50.0)
        with pytest.raises(ValueError):
            interpolate_percentile([1.0], -1.0)


class TestRegistry:
    def test_get_or_create_returns_same_instance(self):
        registry = Registry()
        assert registry.counter("a.b") is registry.counter("a.b")
        assert registry.gauge("a.g") is registry.gauge("a.g")
        assert registry.histogram("a.h") is registry.histogram("a.h")

    def test_type_mismatch_rejected(self):
        registry = Registry()
        registry.counter("a.b")
        with pytest.raises(TelemetryError):
            registry.gauge("a.b")

    def test_snapshot_is_flat_and_sorted(self):
        registry = Registry()
        registry.counter("z.last").inc(2)
        registry.gauge("a.first").set(1.0)
        snapshot = registry.snapshot()
        assert list(snapshot) == sorted(snapshot)
        assert snapshot["z.last"]["value"] == 2

    def test_tree_nests_on_dots(self):
        registry = Registry()
        registry.counter("cxl.port.transactions").inc()
        tree = registry.tree()
        assert tree["cxl"]["port"]["transactions"]["value"] == 1


class TestNullRegistry:
    def test_drops_everything(self):
        registry = NullRegistry()
        counter = registry.counter("c")
        counter.inc(100)
        assert counter.value == 0
        hist = registry.histogram("h")
        hist.record(5.0)
        assert hist.count == 0
        assert registry.snapshot() == {}

    def test_shared_singletons(self):
        registry = NullRegistry()
        assert registry.counter("a") is registry.counter("b")
