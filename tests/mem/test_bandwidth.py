"""Bandwidth curve properties: queueing inflation and row locality."""

import pytest
from hypothesis import given, strategies as st

from repro.mem import queueing_inflation, row_locality_efficiency


class TestQueueingInflation:
    def test_idle_is_one(self):
        assert queueing_inflation(0.0) == 1.0

    def test_monotone_in_utilization(self):
        values = [queueing_inflation(rho / 10) for rho in range(10)]
        for lower, higher in zip(values, values[1:]):
            assert higher >= lower

    def test_flat_below_knee(self):
        assert queueing_inflation(0.5) < 1.2

    def test_explodes_near_saturation(self):
        assert queueing_inflation(0.98) > 3.0

    def test_capped(self):
        assert queueing_inflation(0.999) <= 8.0
        assert queueing_inflation(5.0) <= 8.0   # overload clamps

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            queueing_inflation(-0.1)

    @given(st.floats(min_value=0.0, max_value=2.0))
    def test_always_at_least_one(self, rho):
        assert queueing_inflation(rho) >= 1.0


class TestRowLocality:
    KW = dict(sequential_eff=0.72, random_eff=0.38)

    def test_long_runs_approach_sequential(self):
        eff = row_locality_efficiency(1 << 20, 1.0, **self.KW)
        assert eff == pytest.approx(0.72, abs=0.01)

    def test_single_lines_hit_random_floor(self):
        eff = row_locality_efficiency(64, 1.0, **self.KW)
        assert eff == pytest.approx(0.38, abs=0.02)

    def test_monotone_in_block_size(self):
        sizes = [64, 256, 1024, 4096, 16384, 65536]
        effs = [row_locality_efficiency(s, 1.0, **self.KW) for s in sizes]
        for lower, higher in zip(effs, effs[1:]):
            assert higher >= lower

    def test_stream_mixing_hurts(self):
        few = row_locality_efficiency(16384, 1.0, **self.KW)
        many = row_locality_efficiency(16384, 16.0, **self.KW)
        assert many < few

    def test_never_below_random_floor(self):
        eff = row_locality_efficiency(16384, 1000.0, **self.KW)
        assert eff >= 0.38

    def test_sub_line_block_rejected(self):
        with pytest.raises(ValueError):
            row_locality_efficiency(32, 1.0, **self.KW)

    def test_bad_efficiency_ordering_rejected(self):
        with pytest.raises(ValueError):
            row_locality_efficiency(64, 1.0, sequential_eff=0.3,
                                    random_eff=0.5)

    @given(st.integers(min_value=64, max_value=1 << 22),
           st.floats(min_value=0.0, max_value=64.0))
    def test_bounded(self, block, streams):
        eff = row_locality_efficiency(block, streams, **self.KW)
        assert 0.38 <= eff <= 0.72

