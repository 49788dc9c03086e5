"""Resilience policies: validation, budgets, breakers, sim integration.

The unit bar for :mod:`repro.cluster.resilience`: policy parsing and
validation reject nonsense with uniform errors, the runtime state
machines (retry budget, circuit breaker) behave deterministically, and
a policied :class:`ClusterSim` run keeps the outcome-bucket invariant
— every request settles in exactly one bucket.  The figR experiments
(tests/experiments) cover the end-to-end crossover and retry-storm
shapes; this file pins the pieces.
"""

import dataclasses
import gc

import pytest

from repro.cluster import (
    CircuitBreaker,
    ClusterSim,
    ClusterTopology,
    HostView,
    LinkDown,
    PRESETS,
    ResiliencePolicy,
    RetryBudget,
    hedge_delay_ns,
    make_policy,
    parse_policy,
)
from repro.cluster.resilience import ZERO_POLICY
from repro.cluster.sim import _Attempt
from repro.errors import ClusterError
from repro.faults import FaultPlan
from repro.telemetry import SpanConfig, SpanRecorder


class TestPolicyValidation:
    def test_zero_policy_is_inactive(self):
        assert not ZERO_POLICY.active
        assert not ZERO_POLICY.hedging
        assert not ZERO_POLICY.breaking
        assert not ZERO_POLICY.shedding

    def test_retries_require_a_deadline(self):
        with pytest.raises(ClusterError, match="deadline"):
            ResiliencePolicy(retries=2)

    def test_budget_requires_retries(self):
        with pytest.raises(ClusterError, match="caps nothing"):
            ResiliencePolicy(retry_budget=0.1)

    def test_budget_must_be_positive(self):
        with pytest.raises(ClusterError, match="positive"):
            ResiliencePolicy(deadline_ns=1e5, retries=1,
                             retry_budget=0.0)

    def test_hedge_quantile_below_one(self):
        with pytest.raises(ClusterError, match="hedge_quantile"):
            ResiliencePolicy(hedge_quantile=1.0)

    def test_negative_durations_rejected(self):
        with pytest.raises(ClusterError, match="non-negative"):
            ResiliencePolicy(deadline_ns=-1.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       float("-inf")])
    @pytest.mark.parametrize("field", ["deadline_ns", "backoff_base_ns",
                                       "breaker_cooldown_ns",
                                       "breaker_factor"])
    def test_non_finite_values_rejected(self, field, value):
        with pytest.raises(ClusterError, match=f"{field} must be finite"):
            ResiliencePolicy(**{field: value})

    def test_nan_budget_rejected(self):
        with pytest.raises(ClusterError, match="retry_budget"):
            ResiliencePolicy(deadline_ns=1e5, retries=1,
                             retry_budget=float("nan"))

    def test_breaker_alpha_range(self):
        with pytest.raises(ClusterError, match="breaker_alpha"):
            ResiliencePolicy(breaker_factor=2.0, breaker_alpha=0.0)


class TestPolicyParsing:
    def test_spec_round_trips_through_dict(self):
        policy = ResiliencePolicy.parse(
            "deadline-ns=60000,retries=2,budget=0.1,shed=32")
        assert policy.deadline_ns == 60_000.0
        assert policy.retries == 2
        assert policy.retry_budget == 0.1
        assert policy.shed_inflight == 32
        assert ResiliencePolicy.from_dict(policy.to_dict()) == policy

    def test_unknown_knob_lists_available(self):
        with pytest.raises(ClusterError, match="available:"):
            ResiliencePolicy.parse("jitter-ns=5")

    def test_bad_value_names_the_knob(self):
        with pytest.raises(ClusterError, match="retries"):
            ResiliencePolicy.parse("retries=two")

    def test_repeated_key_rejected(self):
        with pytest.raises(ClusterError, match="repeated key 'retries'"):
            ResiliencePolicy.parse("deadline-ns=5000,retries=1,retries=2")

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ClusterError, match="unknown"):
            ResiliencePolicy.from_dict({"deadline_ns": 1e5,
                                        "jitter_ns": 5.0})

    def test_presets_resolve_and_unknown_lists_available(self):
        assert make_policy("hedged") is PRESETS["hedged"]
        assert parse_policy("guarded") is PRESETS["guarded"]
        with pytest.raises(ClusterError,
                           match=r"available: \[.*'hedged'"):
            make_policy("turbo")

    def test_every_preset_validates_and_round_trips(self):
        for name, policy in PRESETS.items():
            assert ResiliencePolicy.from_dict(policy.to_dict()) \
                == policy, name


class TestRetryBudget:
    def test_uncapped_always_allows(self):
        budget = RetryBudget(None)
        assert all(budget.allow() for _ in range(100))
        assert budget.issued == 100
        assert budget.suppressed == 0

    def test_ratio_caps_against_admitted(self):
        budget = RetryBudget(0.5)
        for _ in range(10):
            budget.note_admitted()
        grants = [budget.allow() for _ in range(10)]
        assert grants == [True] * 5 + [False] * 5
        assert budget.issued == 5
        assert budget.suppressed == 5


def breaker(num_hosts=3, factor=2.0, min_requests=4,
            cooldown_ns=1_000.0):
    policy = ResiliencePolicy(breaker_factor=factor,
                              breaker_min_requests=min_requests,
                              breaker_cooldown_ns=cooldown_ns)
    return CircuitBreaker(policy, num_hosts, reference_ns=100.0)


class TestCircuitBreaker:
    def test_opens_only_with_evidence_and_closes_after_cooldown(self):
        cb = breaker()
        for i in range(3):
            cb.observe(0, 1_000.0, now=float(i))
        assert not cb.is_open(0, now=3.0)     # below min_requests
        cb.observe(0, 1_000.0, now=3.0)
        assert cb.is_open(0, now=3.0)
        assert cb.opens == 1
        assert not cb.is_open(0, now=3.0 + 1_000.0)

    def test_open_resets_evidence(self):
        cb = breaker()
        for i in range(4):
            cb.observe(0, 1_000.0, now=float(i))
        assert cb.count[0] == 0 and cb.ewma[0] == 0.0

    def test_filter_views_ejects_open_hosts(self):
        cb = breaker()
        for i in range(4):
            cb.observe(1, 1_000.0, now=float(i))
        views = [HostView(i) for i in range(3)]
        filtered = cb.filter_views(views, now=3.0)
        assert [v.up for v in filtered] == [True, False, True]

    def test_never_ejects_the_last_healthy_host(self):
        cb = breaker()
        for host in range(3):
            for i in range(4):
                cb.observe(host, 1_000.0, now=float(i))
        views = [HostView(0), HostView(1, up=False), HostView(2)]
        # Both healthy hosts are open: ejecting would empty the fleet,
        # so the views come back unchanged.
        assert cb.filter_views(views, now=3.0) is views

    def test_all_down_fleet_passes_through_to_survivors_error(self):
        # The breaker leaves an already-dead fleet alone; the router's
        # survivors() is what reports the outage.
        from repro.cluster import LeastLoadedRouter, Router

        cb = breaker()
        views = [HostView(i, up=False) for i in range(3)]
        assert cb.filter_views(views, now=0.0) is views
        with pytest.raises(ClusterError, match="no surviving"):
            Router.survivors(views)
        with pytest.raises(ClusterError, match="no surviving"):
            LeastLoadedRouter().route(0, 0, views)


class TestHedgeDelay:
    def test_pure_function_of_seed_and_quantile(self):
        a = hedge_delay_ns(7, 0.95, miss_ns=300.0)
        b = hedge_delay_ns(7, 0.95, miss_ns=300.0)
        assert a == b

    def test_monotone_in_quantile(self):
        p50 = hedge_delay_ns(7, 0.50, miss_ns=300.0)
        p95 = hedge_delay_ns(7, 0.95, miss_ns=300.0)
        assert p95 > p50 > 0.0


def run_sim(policy=None, *, fault_plans=None, link_down=None,
            spans=None, qps=150_000.0, requests=1_200, seed=11):
    topo = ClusterTopology(3, keys_per_host=10_000)
    sim = ClusterSim(topo, seed=seed, policy=policy,
                     fault_plans=fault_plans, link_down=link_down,
                     spans=spans)
    return sim.run(qps=qps, requests=requests)


# Active policies whose knobs never fire at this load: each one keeps
# ClusterSim's policy machinery switched on, so the run must reproduce
# the no-policy run exactly and settle every request ``ok``.
INERT_POLICIES = {
    "shed": ResiliencePolicy(shed_inflight=10**9),
    "deadline": ResiliencePolicy(deadline_ns=1e15),
}

SETUPS = {
    "healthy": {},
    "stalls": {"fault_plans": {
        h: FaultPlan(stall_rate=0.1, stall_ns=80_000.0, seed=3)
        for h in range(3)}},
    "link-down": {"link_down": LinkDown(1)},
}


def spanned_run(policy, setup):
    spans = SpanRecorder(SpanConfig())
    result = run_sim(policy, spans=spans, **SETUPS[setup])
    return result, spans.export()


class TestSimIntegration:
    @pytest.mark.parametrize("setup", sorted(SETUPS))
    @pytest.mark.parametrize("name", sorted(INERT_POLICIES))
    def test_inert_policy_matches_no_policy(self, name, setup):
        policy = INERT_POLICIES[name]
        assert policy.active
        base, base_spans = spanned_run(None, setup)
        result, result_spans = spanned_run(policy, setup)
        assert result.resilience is not None
        assert result.resilience.ok == result.requests
        assert dataclasses.replace(result, resilience=None) == base
        assert result_spans == base_spans

    def test_no_policy_run_reports_no_resilience_stats(self):
        for policy in (None, ZERO_POLICY):
            result = run_sim(policy)
            assert result.resilience is None
            assert result.successes == result.requests
            assert result.goodput_qps == result.achieved_qps

    def test_policied_run_scales_goodput_to_successes(self):
        result = run_sim(PRESETS["deadline"])
        stats = result.resilience
        successes = stats.ok + stats.ok_retried + stats.ok_hedged
        assert result.successes == successes
        assert result.goodput_qps == \
            result.achieved_qps * (successes / result.requests)

    def test_outcome_buckets_partition_the_requests(self):
        plans = {h: FaultPlan(stall_rate=0.1, stall_ns=80_000.0,
                              seed=3) for h in range(3)}
        result = run_sim(PRESETS["guarded"], fault_plans=plans,
                         qps=220_000.0)
        stats = result.resilience
        assert stats is not None
        total = (stats.ok + stats.ok_retried + stats.ok_hedged
                 + stats.deadline_exceeded + stats.rejected)
        assert total == result.requests
        assert stats.successes == result.successes
        assert result.goodput_qps <= result.achieved_qps

    def test_string_policy_specs_resolve_in_the_constructor(self):
        topo = ClusterTopology(3, keys_per_host=10_000)
        sim = ClusterSim(topo, seed=11, policy="deadline")
        assert sim.policy == PRESETS["deadline"]
        with pytest.raises(ClusterError, match="available:"):
            ClusterSim(topo, seed=11, policy="turbo")

    def test_hedging_wins_show_up_under_faults(self):
        plans = {h: FaultPlan(stall_rate=0.2, stall_ns=120_000.0,
                              seed=5) for h in range(3)}
        result = run_sim(PRESETS["hedged"], fault_plans=plans)
        stats = result.resilience
        assert stats.hedges_launched > 0
        assert stats.hedge_wins == stats.ok_hedged
        assert stats.hedge_wins <= stats.hedges_launched


class TestAttemptLifetime:
    """Attempts die by reference counting, not by the cycle collector:
    a deadline timer's args hold its attempt, so both the cancel path
    and the fired-deadline path must break the attempt <-> timer
    cycle, or peak memory follows GC cadence."""

    @pytest.mark.parametrize("name", ["guarded", "unbudgeted",
                                      "hedged-deadline"])
    def test_no_attempt_outlives_the_run(self, name):
        policy = PRESETS.get(name) or ResiliencePolicy(
            deadline_ns=120_000.0, retries=2, hedge_quantile=0.95)
        plans = {h: FaultPlan(stall_rate=0.1, stall_ns=80_000.0, seed=3)
                 for h in range(3)}
        gc.collect()
        gc.disable()
        try:
            result = run_sim(policy, fault_plans=plans, qps=220_000.0,
                             spans=SpanRecorder(SpanConfig()))
            leaked = sum(isinstance(obj, _Attempt)
                         for obj in gc.get_objects())
        finally:
            gc.enable()
        stats = result.resilience
        assert stats.deadline_exceeded + stats.ok_retried \
            + stats.ok_hedged > 0      # deadlines or hedges did fire
        assert leaked == 0
