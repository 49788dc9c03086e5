"""FaultInjector: deterministic draws and per-run fault tallies."""

import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.faults import FaultInjector, FaultPlan, injector_for
from repro.sim.rng import decision_uniform


class TestInjectorFor:
    def test_none_plan_gives_none(self):
        assert injector_for(None, stream="x") is None

    def test_inactive_plan_gives_none(self):
        assert injector_for(FaultPlan(), stream="x") is None

    def test_active_plan_gives_injector(self):
        injector = injector_for(FaultPlan(crc_rate=0.1), stream="x")
        assert isinstance(injector, FaultInjector)


class TestDeterminism:
    def test_same_key_same_draw(self):
        plan = FaultPlan(poison_rate=0.5, seed=3)
        a = FaultInjector(plan, stream="s")
        b = FaultInjector(plan, stream="s")
        decisions = [a.poisoned(line, 1) for line in range(200)]
        assert decisions == [b.poisoned(line, 1) for line in range(200)]

    def test_order_independent(self):
        """Visiting decision points in any order yields the same set."""
        plan = FaultPlan(timeout_rate=0.3, seed=1)
        forward = FaultInjector(plan, stream="s")
        backward = FaultInjector(plan, stream="s")
        keys = list(range(100))
        hits_fwd = {k for k in keys if forward.timeout(k)}
        hits_bwd = {k for k in reversed(keys) if backward.timeout(k)}
        assert hits_fwd == hits_bwd

    def test_streams_are_independent(self):
        plan = FaultPlan(poison_rate=0.5, seed=3)
        a = FaultInjector(plan, stream="alpha")
        b = FaultInjector(plan, stream="beta")
        decisions_a = [a.poisoned(k) for k in range(200)]
        decisions_b = [b.poisoned(k) for k in range(200)]
        assert decisions_a != decisions_b

    def test_fault_sets_nest_as_rates_grow(self):
        """A fault at rate p is still a fault at any rate > p — the
        property that makes degradation monotone in severity."""
        low = FaultInjector(FaultPlan(poison_rate=0.05, seed=2),
                            stream="s")
        high = FaultInjector(FaultPlan(poison_rate=0.2, seed=2),
                             stream="s")
        low_hits = {k for k in range(500) if low.poisoned(k)}
        high_hits = {k for k in range(500) if high.poisoned(k)}
        assert low_hits <= high_hits
        assert len(high_hits) > len(low_hits)

    @given(seed=st.integers(min_value=-2**63, max_value=2**64),
           stream=st.text(max_size=12),
           key=st.lists(st.one_of(
               st.integers(min_value=-2**70, max_value=2**70),
               st.integers(min_value=-2**63, max_value=2**63 - 1)
               .map(np.int64),
               st.integers(min_value=0, max_value=2**32 - 1)
               .map(np.uint32),
               st.text(max_size=8),
               st.floats(allow_nan=True, allow_infinity=True)),
               min_size=1, max_size=5))
    def test_uniform_is_decision_uniform(self, seed, stream, key):
        """The injector's draw hashes the bytes decision_uniform hashes,
        with its ``seed:stream:`` head joined once."""
        plan = FaultPlan(poison_rate=0.5, seed=seed)
        injector = FaultInjector(plan, stream=stream)
        assert injector._uniform(*key) \
            == decision_uniform(plan.seed, stream, *key)

    def test_decision_uniform_in_unit_interval(self):
        values = [decision_uniform(7, "s", k) for k in range(1000)]
        assert all(0.0 <= v < 1.0 for v in values)
        # Roughly uniform: mean near 0.5.
        assert 0.45 < sum(values) / len(values) < 0.55


class TestCrc:
    def test_zero_rate_is_identity(self):
        injector = FaultInjector(FaultPlan(stall_rate=0.5), stream="s")
        assert injector.crc_transmissions(3, "m2s", 0) == 3
        assert injector.injected == 0

    def test_expected_overhead_matches_geometric(self):
        rate = 0.25
        injector = FaultInjector(FaultPlan(crc_rate=rate, seed=5),
                                 stream="s")
        flits = 4000
        total = sum(injector.crc_transmissions(1, "m2s", k)
                    for k in range(flits))
        assert total / flits == pytest.approx(1.0 / (1.0 - rate),
                                              rel=0.05)

    def test_retries_capped(self):
        injector = FaultInjector(
            FaultPlan(crc_rate=0.999, max_retries=3), stream="s")
        assert injector.crc_transmissions(1, "m2s", 0) <= 4

    def test_every_crc_error_counts_as_recovered(self):
        injector = FaultInjector(FaultPlan(crc_rate=0.3, seed=1),
                                 stream="s")
        for k in range(200):
            injector.crc_transmissions(2, "s2m", k)
        assert injector.injected == injector.recovered > 0


class TestAccounting:
    def test_every_fault_kind_is_tallied(self):
        plan = FaultPlan(crc_rate=0.2, poison_rate=0.3,
                         timeout_rate=0.3, stall_rate=0.3, seed=8)
        injector = FaultInjector(plan, stream="s")
        hits = {"crc": 0, "poison": 0, "timeout": 0, "stall": 0}
        for k in range(100):
            hits["crc"] += injector.crc_transmissions(1, "m2s", k) - 1
            if injector.poisoned(k):
                hits["poison"] += 1
                injector.recovery()
            if injector.timeout(k):
                hits["timeout"] += 1
                injector.recovery()
            hits["stall"] += bool(injector.stall_ns(k))
        assert all(hits.values()), hits
        assert injector.injected == injector.recovered \
            == sum(hits.values())

    def test_stall_returns_plan_duration(self):
        plan = FaultPlan(stall_rate=0.5, stall_ns=321.0, seed=2)
        injector = FaultInjector(plan, stream="s")
        values = {injector.stall_ns(k) for k in range(100)}
        assert values == {0.0, 321.0}


class TestRequestExtrasOrder:
    """``request_extras`` gives each key the same parts and leaves the
    same tallies whatever order the keys are visited in — what lets a
    run draw every request's faults before serving them instead of in
    grant order."""

    PLANS = (
        FaultPlan(stall_rate=0.2, stall_ns=123.4, timeout_rate=0.15,
                  poison_rate=0.1, seed=4),
        FaultPlan(stall_rate=0.1, stall_ns=80_000.0, timeout_rate=0.01,
                  poison_rate=0.005, seed=3),
        FaultPlan(timeout_rate=0.3, retry_backoff_ns=7.5, seed=9),
    )

    @staticmethod
    def _visit(plan: FaultPlan, keys: list) -> tuple:
        injector = FaultInjector(plan, stream="host0")
        parts = {}
        for key in keys:
            parts[key] = injector.request_extras(*key,
                                                 reread_ns=1.5 * len(key))
            for _ in range(parts[key][1]):
                injector.recovery()
        return parts, (injector.injected, injector.recovered)

    @pytest.mark.parametrize("plan", PLANS)
    def test_index_reversed_and_shuffled_orders_agree(self, plan):
        keys = [(index,) for index in range(400)] \
            + [(index, "a", 1) for index in range(0, 400, 7)] \
            + [(index, "h", 0) for index in range(0, 400, 11)]
        shuffled = list(keys)
        random.Random(5).shuffle(shuffled)
        parts, tallies = self._visit(plan, keys)
        assert tallies[0] == tallies[1] > 0
        assert self._visit(plan, list(reversed(keys))) == (parts, tallies)
        assert self._visit(plan, shuffled) == (parts, tallies)

    def test_every_fault_kind_fires(self):
        parts, _ = self._visit(self.PLANS[0],
                               [(index,) for index in range(400)])
        kinds = {name for extras, _ in parts.values() for name, _ in extras}
        assert kinds == {"fault.stall", "fault.timeout", "fault.reread"}
