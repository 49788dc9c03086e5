"""Fig R (extension): request-level resilience on the pooled cluster.

PR 6/PR 9 reproduced the paper's core claim at fleet scale — CXL
latency surfaces as *tail* latency, and a degraded link makes the tail
explode.  These experiments close the loop with the defenses real
fleets deploy against exactly that failure mode
(:mod:`repro.cluster.resilience`):

* ``cluster-resilient`` (alias ``figR``) sweeps policy x
  fault-severity x offered QPS over a fleet with one *sick* host
  (heavy CXL device stalls on its pool path) and pins the crossover:
  hedging + circuit breaking pulls degraded p99 well below the
  no-policy baseline while holding goodput, and the deadline/budget
  bundle bounds the tail at the knee by converting unbounded waits
  into classified failures;
* ``cluster-retry-storm`` (alias ``figR-storm``) drives a healthy
  fleet across its saturation knee with deadline-triggered retries and
  pins the metastable collapse: an *uncapped* retry budget multiplies
  offered work past saturation (abandoned attempts still burn service
  — the server cannot see a client-side timeout) and goodput falls off
  a cliff, while a 10% budget suppresses the storm and holds goodput.

Every sweep point is one deterministic DES run
(:func:`~repro.parallel.sweeps.run_cluster_point`); both experiments
return a :class:`~repro.experiments.registry.PointPlan`.
"""

from __future__ import annotations

from ..analysis.compare import ShapeCheck, check_monotone
from ..analysis.series import Series
from ..analysis.tables import series_table
from ..cluster.resilience import PRESETS, ResiliencePolicy
from ..faults import FaultPlan
from ..parallel.sweeps import run_cluster_point
from ..telemetry.spans import SpanConfig
from .figc_cluster import _label, _spans_checks_and_render, _spans_payload
from .registry import (ExperimentResult, PointPlan, register,
                       series_payload)

NUM_HOSTS = 4
SEED = 7
SICK_HOST = 1
SICK_STALL_NS = 100_000.0
SICK_PLAN_SEED = 17

# figR policy arms: nothing, the tail-cutting bundle, the
# overload-survival bundle (see resilience.PRESETS).
FIGR_POLICIES: tuple[tuple[str, ResiliencePolicy | None], ...] = (
    ("none", None),
    ("hedged", PRESETS["hedged"]),
    ("guarded", PRESETS["guarded"]),
)

# figR-storm arms: identical deadline + retry ladder, only the budget
# differs — the collapse is purely the budget's doing.
STORM_POLICIES: tuple[tuple[str, ResiliencePolicy], ...] = (
    ("unbudgeted", PRESETS["unbudgeted"]),
    ("budgeted", ResiliencePolicy(deadline_ns=120_000.0, retries=3,
                                  retry_budget=0.1)),
)


def _sick_plan(severity: float) -> FaultPlan:
    """The sick host's affliction: ``severity`` is the stall rate on
    its CXL pool path (0.3 = a third of pool reads eat a 100 us device
    stall)."""
    return FaultPlan(stall_rate=severity, stall_ns=SICK_STALL_NS,
                     seed=SICK_PLAN_SEED)


def _point(keys: int, qps: float, requests: int, *,
           policy: ResiliencePolicy | None,
           fault_plans: dict | None = None,
           span_config: SpanConfig | None = None) -> tuple:
    """One picklable :func:`run_cluster_point` spec."""
    topo_kwargs = {"num_hosts": NUM_HOSTS, "keys_per_host": keys,
                   "pool_share": 0.5}
    sim_kwargs: dict = {"seed": SEED}
    if policy is not None:
        sim_kwargs["policy"] = policy
    if fault_plans:
        sim_kwargs["fault_plans"] = fault_plans
    run_kwargs = {"qps": qps, "theta": 0.99, "requests": requests}
    return (topo_kwargs, sim_kwargs, run_kwargs, span_config)


@register("cluster-resilient",
          "Resilience policies on a degraded cluster",
          "extension of §2.1 (RAS) + §5.2 (pooling outlook)",
          points=True)
def run_resilient(fast: bool, span_config: SpanConfig | None = None
                  ) -> PointPlan:
    keys = 50_000 if fast else 100_000
    requests = 2_500 if fast else 8_000
    severities = (0.1, 0.3) if fast else (0.05, 0.1, 0.2, 0.3)
    qps_points = [120_000.0, 180_000.0, 240_000.0] if fast \
        else [80_000.0, 120_000.0, 160_000.0, 200_000.0, 240_000.0]

    units, names = [], []
    grid = [(pname, severity) for pname, _ in FIGR_POLICIES
            for severity in severities]
    policies = dict(FIGR_POLICIES)
    for pname, severity in grid:
        plans = {SICK_HOST: _sick_plan(severity)}
        for qps in qps_points:
            units.append(_point(keys, qps, requests,
                                policy=policies[pname],
                                fault_plans=plans, span_config=span_config))
            names.append(_label("figR", qps, policy=pname,
                                sev=severity))

    def combine(values: list) -> ExperimentResult:
        results = [result for result, _spans in values]
        per_combo = {combo: results[i * len(qps_points):
                                    (i + 1) * len(qps_points)]
                     for i, combo in enumerate(grid)}

        x_kw = {"x_label": "QPS"}
        p99_curves = [
            Series(f"p99-us[{pname},sev={severity}]", list(qps_points),
                   [r.p99_us for r in per_combo[(pname, severity)]],
                   y_label="us", **x_kw)
            for pname, severity in grid]
        goodput_curves = [
            Series(f"goodput[{pname},sev={severity}]", list(qps_points),
                   [r.goodput_qps for r in per_combo[(pname, severity)]],
                   y_label="QPS", **x_kw)
            for pname, severity in grid]

        top = qps_points[-1]
        hi = severities[-1]
        none_hi = per_combo[("none", hi)]
        hedged_hi = per_combo[("hedged", hi)]
        guarded_hi = per_combo[("guarded", hi)]
        hedged_stats = [r.resilience for r in hedged_hi]
        checks = [
            ShapeCheck("the crossover: hedging + circuit breaking pulls "
                       "the sick-fleet p99 below the no-policy baseline "
                       "at every load point (worst severity)",
                       all(h.p99_ns < n.p99_ns
                           for h, n in zip(hedged_hi, none_hi)),
                       ", ".join(f"{n.p99_us:.0f}->{h.p99_us:.0f}us"
                                 for h, n in zip(hedged_hi, none_hi))),
            ShapeCheck("hedging holds goodput at the knee while cutting "
                       "the tail",
                       hedged_hi[-1].goodput_qps > none_hi[-1].goodput_qps,
                       f"goodput@{top:g}: hedged "
                       f"{hedged_hi[-1].goodput_qps:.0f} vs none "
                       f"{none_hi[-1].goodput_qps:.0f}"),
            check_monotone("a sicker host never shrinks the unprotected "
                           "tail (p99 vs severity at the knee)",
                           Series("none-p99-vs-sev", list(severities),
                                  [per_combo[("none", sev)][-1].p99_ns
                                   for sev in severities])),
            ShapeCheck("the deadline bundle bounds the knee tail by "
                       "classifying timeouts instead of waiting them out",
                       guarded_hi[-1].p99_ns < none_hi[-1].p99_ns
                       and guarded_hi[-1].resilience.deadline_exceeded > 0,
                       f"p99@{top:g}: guarded {guarded_hi[-1].p99_us:.0f}us"
                       f" vs none {none_hi[-1].p99_us:.0f}us, "
                       f"{guarded_hi[-1].resilience.deadline_exceeded} "
                       f"deadline-exceeded"),
            ShapeCheck("admission control is invisible below the knee and "
                       "sheds exactly where queues build",
                       guarded_hi[0].resilience.rejected == 0
                       and guarded_hi[-1].resilience.rejected > 0,
                       f"rejected@{qps_points[0]:g}="
                       f"{guarded_hi[0].resilience.rejected}, @{top:g}="
                       f"{guarded_hi[-1].resilience.rejected}"),
            ShapeCheck("hedge accounting closes: every hedged win is a "
                       "launched hedge, never more wins than launches",
                       all(s.ok_hedged == s.hedge_wins
                           and s.hedge_wins <= s.hedges_launched
                           and s.hedges_launched > 0
                           for s in hedged_stats),
                       f"{sum(s.hedge_wins for s in hedged_stats)} wins / "
                       f"{sum(s.hedges_launched for s in hedged_stats)} "
                       f"launched"),
            ShapeCheck("the breaker trips on the sick host at the worst "
                       "severity",
                       all(s.breaker_opens > 0 for s in hedged_stats),
                       f"opens={[s.breaker_opens for s in hedged_stats]}"),
            ShapeCheck("policy-free points carry no resilience stats; "
                       "policied points always do",
                       all((r.resilience is None) == (pname == "none")
                           for (pname, sev), rs in per_combo.items()
                           for r in rs),
                       f"{len(results)} points"),
            ShapeCheck("goodput never exceeds achieved throughput",
                       all(r.goodput_qps <= r.achieved_qps + 1e-9
                           for r in results),
                       f"{len(results)} points"),
            ShapeCheck("every request settles exactly once, every policy",
                       all(r.requests == requests for r in results),
                       f"{len(results)} points x {requests} requests"),
        ]

        rendered = "\n\n".join([
            series_table(p99_curves,
                         title=f"Resilience policy x sick-host severity "
                               f"({NUM_HOSTS} hosts, host {SICK_HOST} "
                               f"stalls {SICK_STALL_NS / 1000:.0f}us on "
                               f"its pool path)"),
            series_table(goodput_curves, y_format="{:.0f}",
                         title="Goodput vs offered load"),
        ])
        spans_payload: dict = {}
        if span_config is not None:
            spans_payload = _spans_payload(span_config, names, values)
            span_checks, span_section = _spans_checks_and_render(
                spans_payload)
            checks += span_checks
            rendered += "\n\n" + span_section
        return ExperimentResult(
            "cluster-resilient",
            "Resilience policies on a degraded cluster", rendered, checks,
            series=series_payload({"p99-vs-qps": p99_curves,
                                   "goodput-vs-offered": goodput_curves}),
            spans=spans_payload)

    return PointPlan(run_cluster_point, units, names, combine)


@register("cluster-retry-storm",
          "Retry budgets vs metastable retry storms",
          "extension of §5.2 (pooling outlook) under overload",
          points=True)
def run_retry_storm(fast: bool, span_config: SpanConfig | None = None
                    ) -> PointPlan:
    keys = 50_000 if fast else 100_000
    requests = 2_500 if fast else 8_000
    qps_points = [180_000.0, 260_000.0, 340_000.0] if fast \
        else [160_000.0, 200_000.0, 240_000.0, 280_000.0, 320_000.0,
              360_000.0]

    units, names = [], []
    for pname, policy in STORM_POLICIES:
        for qps in qps_points:
            units.append(_point(keys, qps, requests, policy=policy,
                                span_config=span_config))
            names.append(_label("figR-storm", qps, policy=pname))

    def combine(values: list) -> ExperimentResult:
        results = [result for result, _spans in values]
        arms = {pname: results[i * len(qps_points):
                               (i + 1) * len(qps_points)]
                for i, (pname, _) in enumerate(STORM_POLICIES)}
        unbud, bud = arms["unbudgeted"], arms["budgeted"]

        x_kw = {"x_label": "QPS"}
        goodput_curves = [
            Series(f"goodput[{pname}]", list(qps_points),
                   [r.goodput_qps for r in arms[pname]],
                   y_label="QPS", **x_kw)
            for pname, _ in STORM_POLICIES]
        wasted_curves = [
            Series(f"wasted-ms[{pname}]", list(qps_points),
                   [r.resilience.wasted_ns / 1e6 for r in arms[pname]],
                   y_label="ms", **x_kw)
            for pname, _ in STORM_POLICIES]

        low, top = qps_points[0], qps_points[-1]
        parity_gap = abs(unbud[0].goodput_qps - bud[0].goodput_qps) \
            / bud[0].goodput_qps
        checks = [
            ShapeCheck("below the knee the budget is invisible: both arms "
                       "deliver the same goodput",
                       parity_gap < 0.02,
                       f"goodput@{low:g}: unbudgeted "
                       f"{unbud[0].goodput_qps:.0f} vs budgeted "
                       f"{bud[0].goodput_qps:.0f} ({parity_gap:.1%} apart)"),
            ShapeCheck("past the knee the uncapped budget collapses "
                       "goodput to a fraction of the budgeted arm's",
                       bud[-1].goodput_qps > 1.5 * unbud[-1].goodput_qps,
                       f"goodput@{top:g}: budgeted "
                       f"{bud[-1].goodput_qps:.0f} vs unbudgeted "
                       f"{unbud[-1].goodput_qps:.0f}"),
            ShapeCheck("the storm is metastable: unbudgeted goodput past "
                       "saturation falls below its own below-knee level",
                       unbud[-1].goodput_qps < unbud[0].goodput_qps,
                       f"{unbud[0].goodput_qps:.0f} -> "
                       f"{unbud[-1].goodput_qps:.0f}"),
            ShapeCheck("the budget actively suppresses retries exactly "
                       "where the storm would form",
                       bud[-1].resilience.retries_suppressed > 0
                       and bud[0].resilience.retries_suppressed == 0,
                       f"suppressed@{low:g}="
                       f"{bud[0].resilience.retries_suppressed}, "
                       f"@{top:g}={bud[-1].resilience.retries_suppressed}"),
            ShapeCheck("wasted service is the storm's signature: the "
                       "uncapped arm burns a multiple of the budgeted "
                       "arm's wasted work past the knee",
                       unbud[-1].resilience.wasted_ns
                       > 2.0 * bud[-1].resilience.wasted_ns,
                       f"wasted@{top:g}: unbudgeted "
                       f"{unbud[-1].resilience.wasted_ns / 1e6:.1f}ms vs "
                       f"budgeted "
                       f"{bud[-1].resilience.wasted_ns / 1e6:.1f}ms"),
            ShapeCheck("every request settles exactly once in both arms",
                       all(r.requests == requests for r in results),
                       f"{len(results)} points x {requests} requests"),
        ]
        rendered = series_table(
            goodput_curves + wasted_curves, y_format="{:.0f}",
            title=f"Retry storm across the saturation knee ({NUM_HOSTS} "
                  f"hosts, deadline "
                  f"{STORM_POLICIES[0][1].deadline_ns / 1000:.0f}us, "
                  f"{STORM_POLICIES[0][1].retries} retries)")
        spans_payload: dict = {}
        if span_config is not None:
            spans_payload = _spans_payload(span_config, names, values)
            span_checks, span_section = _spans_checks_and_render(
                spans_payload)
            checks += span_checks
            rendered += "\n\n" + span_section
        return ExperimentResult(
            "cluster-retry-storm",
            "Retry budgets vs metastable retry storms", rendered, checks,
            series=series_payload({"goodput": goodput_curves,
                                   "wasted": wasted_curves}),
            spans=spans_payload)

    return PointPlan(run_cluster_point, units, names, combine)
