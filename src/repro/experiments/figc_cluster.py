"""Fig C (extension): cluster-scale CXL memory pooling.

The paper measures one host; its §5.2 pooling outlook (and the
CXL-DMSim / CXLRAMSim line of work in PAPERS.md) is about *fleets*: N
KV shards sharing one fabric-attached memory pool under skewed
open-loop load.  Two experiments drive the
:mod:`repro.cluster` subsystem:

* ``cluster-pooling`` (alias ``figC``) sweeps offered QPS × zipfian
  skew × pool share over a 4-host fleet and reports cluster-wide
  p99-vs-QPS curves, exact pool utilization, and the routing-policy
  comparison (hash-shard vs least-loaded at the saturation knee);
* ``cluster-degraded`` (alias ``figC-deg``) runs healthy/degraded twin
  fleets where one host's CXL link dies mid-run under per-host
  :class:`~repro.faults.FaultPlan` noise, and pins graceful
  degradation: surviving shards absorb the rerouted load and every
  injected fault is recovered.

Every sweep point is an independent, fully deterministic DES run
(:func:`~repro.parallel.sweeps.run_cluster_point`): both experiments
return a :class:`~repro.experiments.registry.PointPlan`, and the result
does not depend on which process ran which point.
"""

from __future__ import annotations

from ..analysis.compare import ShapeCheck, check_monotone, check_ordering
from ..analysis.series import Series
from ..analysis.tables import series_table
from ..cluster.sim import LinkDown
from ..faults import FaultPlan
from ..parallel.sweeps import run_cluster_point
from ..telemetry.spans import (SpanConfig, combine_aggregates,
                               render_attribution, render_waterfall)
from .registry import (ExperimentResult, PointPlan, register,
                       series_payload)

NUM_HOSTS = 4
SEED = 7
THETAS = (0.7, 0.99)
POOL_SHARES = (0.25, 0.5)
DOWN_HOST = 1
DOWN_AT_FRACTION = 0.4

# Per-host degraded-fleet noise: occasional device stalls, rare
# transient timeouts and poisoned reads on every host's pool path.
CLUSTER_PLAN = FaultPlan(stall_rate=0.01, timeout_rate=0.002,
                         poison_rate=0.001, seed=13)


def _label(eid: str, qps: float, **axes) -> str:
    """A human-readable unit label: ``figC[qps=140k,skew=0.99,...]``."""
    parts = [f"qps={qps / 1000:g}k"]
    parts += [f"{key}={value}" for key, value in axes.items()]
    return f"{eid}[{','.join(parts)}]"


def _point(keys: int, pool_share: float, qps: float, theta: float,
           requests: int, *, router: str = "hash-shard",
           fault_plans: dict | None = None,
           link_down: LinkDown | None = None,
           policy=None,
           span_config: SpanConfig | None = None) -> tuple:
    """One picklable :func:`run_cluster_point` spec."""
    topo_kwargs = {"num_hosts": NUM_HOSTS, "keys_per_host": keys,
                   "pool_share": pool_share}
    sim_kwargs = {"router": router, "seed": SEED}
    if fault_plans:
        sim_kwargs["fault_plans"] = fault_plans
    if link_down is not None:
        sim_kwargs["link_down"] = link_down
    if policy is not None:
        sim_kwargs["policy"] = policy
    run_kwargs = {"qps": qps, "theta": theta, "requests": requests}
    return (topo_kwargs, sim_kwargs, run_kwargs, span_config)


def _spans_payload(span_config: SpanConfig, names: list[str],
                   values: list[tuple]) -> dict:
    """Per-point span aggregates keyed by unit label, from
    :func:`run_cluster_point` values."""
    return {"config": span_config.to_dict(),
            "points": {name: spans
                       for name, (_result, spans) in zip(names, values)
                       if spans}}


def _spans_checks_and_render(payload: dict
                             ) -> tuple[list[ShapeCheck], str]:
    """Shape checks plus the rendered attribution section.

    The closure check is the span layer's core guarantee: per point,
    the per-component totals sum back to the recorded end-to-end time
    within float rounding.
    """
    points = payload["points"]
    worst = 0.0
    for aggregate in points.values():
        total = aggregate["total_ns"]
        parts = sum(slot["total_ns"]
                    for slot in aggregate["components"].values())
        worst = max(worst, abs(parts - total) / total if total else 0.0)
    combined = combine_aggregates(list(points.values()))
    k = payload["config"]["exemplars"]
    checks = [
        ShapeCheck("span components sum to end-to-end latency within "
                   "rounding, at every sweep point",
                   worst < 1e-9, f"worst relative gap {worst:.2e}"),
        ShapeCheck(f"each sweep point retains its {k} slowest traces",
                   all(len(agg["exemplars"]) == min(k, agg["requests"])
                       for agg in points.values()),
                   f"{len(points)} points x {k} exemplars"),
    ]
    sections = [render_attribution(combined,
                                   title="Tail attribution (all points)")]
    if combined["exemplars"]:
        sections.append("Slowest trace:\n"
                        + render_waterfall(combined["exemplars"][0]))
    return checks, "\n\n".join(sections)


@register("cluster-pooling", "Cluster-scale CXL memory pooling",
          "extension of §5.2 (pooling outlook)", points=True)
def run_pooling(fast: bool, fault_plan: FaultPlan | None = None,
                span_config: SpanConfig | None = None,
                resilience=None) -> PointPlan:
    keys = 50_000 if fast else 100_000
    requests = 2_500 if fast else 8_000
    qps_points = [60_000.0, 140_000.0, 220_000.0, 300_000.0] if fast \
        else [40_000.0, 80_000.0, 120_000.0, 160_000.0, 200_000.0,
              240_000.0, 280_000.0, 320_000.0]
    plans = {host: fault_plan for host in range(NUM_HOSTS)} \
        if fault_plan is not None else None

    grid = [(theta, share) for theta in THETAS for share in POOL_SHARES]
    units, names = [], []
    for theta, share in grid:
        for qps in qps_points:
            units.append(_point(keys, share, qps, theta, requests,
                                fault_plans=plans, policy=resilience,
                                span_config=span_config))
            names.append(_label("figC", qps, skew=theta,
                                pool=f"{share:.0%}"))
    # The routing comparison rides the hottest combo: skewed traffic,
    # half the working set pooled, least-loaded balancing.
    for qps in qps_points:
        units.append(_point(keys, 0.5, qps, 0.99, requests,
                            router="least-loaded", fault_plans=plans,
                            policy=resilience, span_config=span_config))
        names.append(_label("figC", qps, skew=0.99, pool="50%",
                            router="least-loaded"))

    def combine(values: list) -> ExperimentResult:
        results = [result for result, _spans in values]
        per_combo = {combo: results[i * len(qps_points):
                                    (i + 1) * len(qps_points)]
                     for i, combo in enumerate(grid)}
        routed = results[len(grid) * len(qps_points):]

        x_kw = {"x_label": "QPS"}
        p99_curves = [
            Series(f"p99-us[skew={theta},pool={share:.0%}]", list(qps_points),
                   [r.p99_us for r in per_combo[(theta, share)]],
                   y_label="us", **x_kw)
            for theta, share in grid]
        routing_curves = [
            Series("p99-us[hash-shard]", list(qps_points),
                   [r.p99_us for r in per_combo[(0.99, 0.5)]],
                   y_label="us", **x_kw),
            Series("p99-us[least-loaded]", list(qps_points),
                   [r.p99_us for r in routed], y_label="us", **x_kw)]
        utilization = [
            Series(f"pool-util[pool={share:.0%}]", list(qps_points),
                   [r.pool_utilization for r in per_combo[(0.99, share)]],
                   y_label="fraction", **x_kw)
            for share in POOL_SHARES]

        low, top = qps_points[0], qps_points[-1]
        checks = [check_monotone(
            f"cluster p99 never drops as offered QPS grows "
            f"(skew={theta}, pool={share:.0%})",
            curve) for (theta, share), curve in zip(grid, p99_curves)]
        for theta in THETAS:
            checks.append(check_ordering(
                f"a larger pool share raises the saturated tail "
                f"(skew={theta})",
                {f"pool={share:.0%}":
                 per_combo[(theta, share)][-1].p99_ns
                 for share in POOL_SHARES}))
        checks += [
            ShapeCheck("pool utilization is exactly the configured spill "
                       "share, never above capacity",
                       all(abs(r.pool_utilization - share) < 1e-6
                           and r.pool_utilization <= 1.0
                           for (theta, share), rs in per_combo.items()
                           for r in rs),
                       ", ".join(f"{share:.0%}->"
                                 f"{per_combo[(0.99, share)][0].pool_utilization:.3f}"
                                 for share in POOL_SHARES)),
            ShapeCheck("skew helps at low load: the LLC absorbs the hot "
                       "keys (pool=50%)",
                       per_combo[(0.99, 0.5)][0].p99_ns
                       < per_combo[(0.7, 0.5)][0].p99_ns,
                       f"p99@{low:g}: skew=0.99 "
                       f"{per_combo[(0.99, 0.5)][0].p99_us:.1f}us < skew=0.7 "
                       f"{per_combo[(0.7, 0.5)][0].p99_us:.1f}us"),
            ShapeCheck("skew hurts at saturation: the hot shard queues "
                       "first (pool=50%, hash-shard)",
                       per_combo[(0.99, 0.5)][-1].p99_ns
                       > per_combo[(0.7, 0.5)][-1].p99_ns,
                       f"p99@{top:g}: skew=0.99 "
                       f"{per_combo[(0.99, 0.5)][-1].p99_us:.1f}us > skew=0.7 "
                       f"{per_combo[(0.7, 0.5)][-1].p99_us:.1f}us"),
            ShapeCheck("least-loaded routing flattens the saturated tail "
                       "(the shared pool makes any survivor a server)",
                       routed[-1].p99_ns
                       < per_combo[(0.99, 0.5)][-1].p99_ns,
                       f"p99@{top:g}: least-loaded "
                       f"{routed[-1].p99_us:.1f}us vs hash-shard "
                       f"{per_combo[(0.99, 0.5)][-1].p99_us:.1f}us"),
            ShapeCheck("every request completes end-to-end",
                       all(r.requests == requests for r in results),
                       f"{len(results)} points x {requests} requests"),
        ]
        if fault_plan is None:
            checks.append(ShapeCheck(
                "a healthy fleet injects zero faults",
                all(r.injected == 0 and r.recovered == 0 for r in results),
                f"injected={sum(r.injected for r in results)}"))
        else:
            checks.append(ShapeCheck(
                "every injected per-host fault is recovered",
                all(host.injected == host.recovered
                    for r in results for host in r.hosts),
                f"injected={sum(r.injected for r in results)}, "
                f"recovered={sum(r.recovered for r in results)}"))

        rendered = "\n\n".join([
            series_table(p99_curves,
                         title=f"Cluster p99 vs offered QPS ({NUM_HOSTS} "
                               f"hosts, {keys} keys/host, hash-shard)"),
            series_table(routing_curves,
                         title="Routing policy at skew=0.99, pool=50%"),
            series_table(utilization, y_format="{:.3f}",
                         title="Pool utilization (carved/capacity)"),
        ])
        spans_payload: dict = {}
        if span_config is not None:
            spans_payload = _spans_payload(span_config, names, values)
            span_checks, span_section = _spans_checks_and_render(spans_payload)
            checks += span_checks
            rendered += "\n\n" + span_section
        return ExperimentResult(
            "cluster-pooling", "Cluster-scale CXL memory pooling", rendered,
            checks, series=series_payload({
                "p99-vs-qps": p99_curves,
                "routing": routing_curves,
                "pool-utilization": utilization}),
            spans=spans_payload)

    return PointPlan(run_cluster_point, units, names, combine)


@register("cluster-degraded", "Degraded fleet: CXL link loss mid-run",
          "extension of §2.1 (RAS) at fleet scale", points=True)
def run_degraded(fast: bool, fault_plan: FaultPlan | None = None,
                 span_config: SpanConfig | None = None,
                 resilience=None) -> PointPlan:
    keys = 50_000 if fast else 100_000
    requests = 2_500 if fast else 8_000
    qps_points = [80_000.0, 140_000.0, 200_000.0] if fast \
        else [60_000.0, 100_000.0, 140_000.0, 180_000.0, 220_000.0]
    plan = fault_plan if fault_plan is not None else CLUSTER_PLAN
    plans = {host: plan for host in range(NUM_HOSTS)}
    down = LinkDown(host=DOWN_HOST, at_fraction=DOWN_AT_FRACTION)

    units, names = [], []
    for qps in qps_points:
        units.append(_point(keys, 0.5, qps, 0.99, requests,
                            policy=resilience, span_config=span_config))
        names.append(_label("figC-deg", qps, fleet="healthy"))
    for qps in qps_points:
        units.append(_point(keys, 0.5, qps, 0.99, requests,
                            fault_plans=plans, link_down=down,
                            policy=resilience, span_config=span_config))
        names.append(_label("figC-deg", qps, fleet="degraded"))

    def combine(values: list) -> ExperimentResult:
        results = [result for result, _spans in values]
        healthy = results[:len(qps_points)]
        degraded = results[len(qps_points):]

        x_kw = {"x_label": "QPS"}
        healthy_p99 = Series("p99-us[healthy]", list(qps_points),
                             [r.p99_us for r in healthy],
                             y_label="us", **x_kw)
        degraded_p99 = Series("p99-us[degraded]", list(qps_points),
                              [r.p99_us for r in degraded],
                              y_label="us", **x_kw)
        rerouted = Series("rerouted", list(qps_points),
                          [float(r.rerouted) for r in degraded],
                          y_label="count", **x_kw)
        injected = Series("injected", list(qps_points),
                          [float(r.injected) for r in degraded],
                          y_label="count", **x_kw)

        down_name = degraded[0].hosts[DOWN_HOST].name
        checks = [
            check_monotone("healthy fleet p99 never drops with load",
                           healthy_p99),
            check_monotone("degraded fleet p99 never drops with load",
                           degraded_p99),
            ShapeCheck("losing a CXL link never improves the tail",
                       all(d.p99_ns >= h.p99_ns
                           for h, d in zip(healthy, degraded)),
                       ", ".join(f"{h.p99_us:.0f}->{d.p99_us:.0f}us"
                                 for h, d in zip(healthy, degraded))),
            ShapeCheck("every injected fault is recovered, per host, at "
                       "every load point",
                       all(host.injected == host.recovered
                           for r in degraded for host in r.hosts),
                       f"injected={sum(r.injected for r in degraded)}, "
                       f"recovered={sum(r.recovered for r in degraded)}"),
            ShapeCheck(f"the downed host ({down_name}) sheds its "
                       f"pool-resident load",
                       all(d.hosts[DOWN_HOST].requests
                           < h.hosts[DOWN_HOST].requests
                           for h, d in zip(healthy, degraded)),
                       f"served {healthy[0].hosts[DOWN_HOST].requests}->"
                       f"{degraded[0].hosts[DOWN_HOST].requests}"),
            ShapeCheck("surviving shards absorb every rerouted request",
                       all(r.rerouted > 0
                           and sum(host.absorbed for host in r.hosts)
                           == r.rerouted for r in degraded),
                       f"rerouted={degraded[0].rerouted}, absorbed="
                       f"{sum(h.absorbed for h in degraded[0].hosts)}"),
            ShapeCheck("the healthy twin injects zero faults",
                       all(r.injected == 0 and r.rerouted == 0
                           for r in healthy),
                       f"injected={sum(r.injected for r in healthy)}"),
            ShapeCheck("every request completes on both fleets",
                       all(r.requests == requests for r in results),
                       f"{len(results)} points x {requests} requests"),
        ]
        rendered = series_table(
            [healthy_p99, degraded_p99, rerouted, injected],
            title=f"Degraded fleet: host {DOWN_HOST} loses its CXL link "
                  f"{DOWN_AT_FRACTION:.0%} into the run "
                  f"({NUM_HOSTS} hosts, skew=0.99, pool=50%)")
        spans_payload: dict = {}
        if span_config is not None:
            spans_payload = _spans_payload(span_config, names, values)
            span_checks, span_section = _spans_checks_and_render(spans_payload)
            checks += span_checks
            rendered += "\n\n" + span_section
        return ExperimentResult(
            "cluster-degraded", "Degraded fleet: CXL link loss mid-run",
            rendered, checks,
            series=series_payload({"degraded-fleet": [
                healthy_p99, degraded_p99, rerouted, injected]}),
            spans=spans_payload)

    return PointPlan(run_cluster_point, units, names, combine)
