"""The generic ``ScenarioExperiment`` adapter.

One parsed :class:`~repro.scenarios.spec.Scenario` becomes one
registered experiment (id ``scn-<name>``) whose runner:

1. expands the sweep axes into the deterministic point grid;
2. splits each point into its traffic segments (bursty/diurnal arrival
   windows);
3. declares every (point, segment) as an independent
   :func:`~repro.parallel.sweeps.run_cluster_point` unit of a
   :class:`~repro.experiments.registry.PointPlan`, exactly like the
   hand-written cluster experiments;
4. combines the segments into per-point metrics and evaluates the
   scenario's declarative acceptance checks into
   :class:`~repro.analysis.compare.ShapeCheck` verdicts.

The scenario's content hash rides the registry entry's
``extra_config``, so result-cache keys and checkpoint suite hashes
change whenever the document changes.
"""

from __future__ import annotations

from dataclasses import replace

from ..analysis.compare import ShapeCheck
from ..analysis.series import Series
from ..analysis.tables import format_table
from ..config import SystemConfig
from ..faults import FaultPlan
from ..parallel.sweeps import run_cluster_point
from .profiles import build_testbed
from .spec import METRICS, CheckSpec, Scenario, point_grid

# NOTE: repro.experiments imports this package to register the shipped
# pack, so the registry imports below live inside the functions that
# need them (importing the submodule would re-enter the partially
# initialized repro.experiments package).

POINT_METRICS = METRICS
"""Aggregated per-point metrics (the namespace checks reference)."""


def _format_value(key: str, value) -> str:
    if key == "qps":
        return f"qps={float(value) / 1000:g}k"
    if isinstance(value, float):
        return f"{key}={value:g}"
    return f"{key}={value}"


def point_label(scenario: Scenario, point: dict) -> str:
    """``scn-name[qps=80k,severity=2]`` — the parallel-unit label."""
    if not point:
        return scenario.experiment_id
    parts = [_format_value(key, value) for key, value in point.items()]
    return f"{scenario.experiment_id}[{','.join(parts)}]"


def _point_testbed(scenario: Scenario, point: dict) -> SystemConfig:
    device = scenario.topology.device
    if "device" in point:
        device = replace(device, variant=point["device"])
    return build_testbed(device)


def _point_units(scenario: Scenario, point: dict, *, fast: bool,
                 fault_plan: FaultPlan | None,
                 resilience=None,
                 span_config=None) -> tuple[list, list]:
    """The (specs, segment_labels) for one sweep point.

    ``resilience`` is the CLI ``--resilience`` override; when given it
    wins over the scenario's own ``resilience`` block, mirroring how
    ``fault_plan`` overrides ``scenario.faults.plan``.
    """
    hosts = int(point.get("hosts", scenario.topology.hosts))
    pool_share = float(point.get("pool_share",
                                 scenario.topology.pool_share))
    qps = float(point.get("qps", scenario.workload.qps))
    theta = float(point.get("theta", scenario.workload.theta))
    write_fraction = float(point.get("write_fraction",
                                     scenario.workload.write_fraction))
    requests = scenario.workload.requests_for(fast)

    topo_kwargs = {"num_hosts": hosts,
                   "keys_per_host": scenario.topology.keys_per_host,
                   "pool_share": pool_share,
                   "workers": scenario.topology.workers,
                   "testbed": _point_testbed(scenario, point)}

    sim_kwargs: dict = {"router": scenario.router,
                        "seed": scenario.seed}
    plan = fault_plan
    if scenario.faults is not None:
        plan = fault_plan if fault_plan is not None \
            else scenario.faults.plan
        if "severity" in point:
            plan = plan.scaled(float(point["severity"]))
        if scenario.faults.link_down is not None:
            sim_kwargs["link_down"] = scenario.faults.link_down
    if plan is not None and plan.active:
        sim_kwargs["fault_plans"] = {host: plan
                                     for host in range(hosts)}
    policy = resilience if resilience is not None \
        else scenario.resilience
    if policy is not None:
        sim_kwargs["policy"] = policy

    specs, labels = [], []
    for label, segment_qps, segment_requests in \
            scenario.traffic.segments(qps, requests):
        run_kwargs = {"qps": segment_qps, "theta": theta,
                      "requests": segment_requests,
                      "write_fraction": write_fraction}
        specs.append((topo_kwargs, sim_kwargs, run_kwargs, span_config))
        labels.append(label)
    return specs, labels


def _aggregate(segments: list) -> dict:
    """Per-point metrics from the point's segment ClusterResults.

    Tail percentiles take the worst window (a burst's p99 *is* the
    point's p99); counts and means aggregate across the whole arrival
    timeline.
    """
    total = sum(seg.requests for seg in segments)
    wall_s = sum(seg.requests / seg.achieved_qps for seg in segments)

    def stat(name: str) -> float:
        return float(sum(getattr(seg.resilience, name)
                         for seg in segments
                         if seg.resilience is not None))

    return {
        "p99_us": max(seg.p99_ns for seg in segments) / 1000.0,
        "p50_us": max(seg.p50_ns for seg in segments) / 1000.0,
        "mean_service_us": sum(seg.mean_service_ns * seg.requests
                               for seg in segments) / total / 1000.0,
        "achieved_qps": total / wall_s,
        "pool_utilization": segments[0].pool_utilization,
        "requests": float(total),
        "injected": float(sum(seg.injected for seg in segments)),
        "recovered": float(sum(seg.recovered for seg in segments)),
        "rerouted": float(sum(seg.rerouted for seg in segments)),
        "goodput_qps": sum(seg.successes for seg in segments) / wall_s,
        "rejected": stat("rejected"),
        "retries": stat("retries_issued"),
        "hedges": stat("hedges_launched"),
        "deadline_exceeded": stat("deadline_exceeded"),
    }


# --------------------------------------------------------------------------
# Check evaluation
# --------------------------------------------------------------------------

def _axis_groups(scenario: Scenario, points: list[dict],
                 metrics: list[dict], axis: str,
                 metric: str) -> list[tuple[str, list]]:
    """``(group_label, [(axis_value, metric_value), ...])`` per fixed
    combination of the other axes, in deterministic grid order."""
    others = [a.name for a in scenario.axes if a.name != axis]
    order: list[tuple] = []
    groups: dict[tuple, list] = {}
    for point, values in zip(points, metrics):
        key = tuple(point[name] for name in others)
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append((point[axis], values[metric]))
    labeled = []
    for key in order:
        label = ",".join(_format_value(name, value)
                         for name, value in zip(others, key)) or "all"
        labeled.append((label, groups[key]))
    return labeled


def _render_run(run: list) -> str:
    return " -> ".join(f"{value:.4g}" for _x, value in run)


def _monotone_check(scenario: Scenario, check: CheckSpec,
                    points: list[dict], metrics: list[dict],
                    *, claim: str) -> ShapeCheck:
    tolerance = check.tolerance or 0.0
    failures, shown = [], []
    for label, run in _axis_groups(scenario, points, metrics,
                                   check.axis, check.metric):
        values = [value for _x, value in run]
        if check.direction == "nonincreasing":
            ok = all(after <= before * (1.0 + tolerance)
                     for before, after in zip(values, values[1:]))
        else:
            ok = all(after >= before * (1.0 - tolerance)
                     for before, after in zip(values, values[1:]))
        if not ok:
            failures.append(label)
        shown.append(f"{label}: {_render_run(run)}")
    measured = "; ".join(shown[:4]) + \
        (f" (+{len(shown) - 4} more)" if len(shown) > 4 else "")
    if failures:
        measured = f"violated at {', '.join(failures)}; {measured}"
    return ShapeCheck(claim, not failures, measured)


def _ordering_check(scenario: Scenario, check: CheckSpec,
                    points: list[dict], metrics: list[dict],
                    *, claim: str) -> ShapeCheck:
    failures, shown = [], []
    for label, run in _axis_groups(scenario, points, metrics,
                                   check.axis, check.metric):
        values = [value for _x, value in run]
        if check.direction == "decreasing":
            ok = all(a > b for a, b in zip(values, values[1:]))
            joiner = " > "
        else:
            ok = all(a < b for a, b in zip(values, values[1:]))
            joiner = " < "
        if not ok:
            failures.append(label)
        shown.append(label + ": "
                     + joiner.join(f"{v:.4g}" for v in values))
    measured = "; ".join(shown[:4]) + \
        (f" (+{len(shown) - 4} more)" if len(shown) > 4 else "")
    if failures:
        measured = f"violated at {', '.join(failures)}; {measured}"
    return ShapeCheck(claim, not failures, measured)


def _evaluate_checks(scenario: Scenario, points: list[dict],
                     metrics: list[dict], segments: list[list],
                     expected_requests: int) -> list[ShapeCheck]:
    checks: list[ShapeCheck] = []
    for check in scenario.checks:
        if check.kind in ("monotone", "fault-monotone"):
            noun = "fault severity" if check.kind == "fault-monotone" \
                else f"the {check.axis} axis"
            claim = (f"{scenario.name}: {check.metric} is "
                     f"{check.direction} in {noun}")
            checks.append(_monotone_check(scenario, check, points,
                                          metrics, claim=claim))
        elif check.kind == "ordering":
            claim = (f"{scenario.name}: {check.metric} is strictly "
                     f"{check.direction} across the {check.axis} axis")
            checks.append(_ordering_check(scenario, check, points,
                                          metrics, claim=claim))
        elif check.kind == "bound":
            lo = check.min if check.min is not None else float("-inf")
            hi = check.max if check.max is not None else float("inf")
            values = [m[check.metric] for m in metrics]
            passed = all(lo <= v <= hi for v in values)
            claim = (f"{scenario.name}: {check.metric} stays within "
                     f"[{lo:g}, {hi:g}] at every point")
            checks.append(ShapeCheck(
                claim, passed,
                f"observed [{min(values):.4g}, {max(values):.4g}] "
                f"over {len(values)} point(s)"))
        elif check.kind == "all-complete":
            passed = all(m["requests"] == expected_requests
                         for m in metrics)
            checks.append(ShapeCheck(
                f"{scenario.name}: every request completes end-to-end "
                f"at every point",
                passed,
                f"{len(metrics)} point(s) x {expected_requests} "
                f"requests"))
        elif check.kind == "faults-recovered":
            passed = all(host.injected == host.recovered
                         for point_segments in segments
                         for seg in point_segments
                         for host in seg.hosts)
            injected = sum(int(m["injected"]) for m in metrics)
            recovered = sum(int(m["recovered"]) for m in metrics)
            checks.append(ShapeCheck(
                f"{scenario.name}: every injected fault is recovered, "
                f"per host, at every point",
                passed,
                f"injected={injected}, recovered={recovered}"))
    return checks


# --------------------------------------------------------------------------
# The runner factory and registration
# --------------------------------------------------------------------------

def _render_points(scenario: Scenario, points: list[dict],
                   metrics: list[dict]) -> str:
    headers = ["point", "p99_us", "p50_us", "achieved_qps",
               "pool_util", "requests", "inj/rec", "rerouted"]
    rows = []
    for point, values in zip(points, metrics):
        rows.append([
            point_label(scenario, point),
            f"{values['p99_us']:.1f}",
            f"{values['p50_us']:.1f}",
            f"{values['achieved_qps']:.0f}",
            f"{values['pool_utilization']:.3f}",
            f"{values['requests']:.0f}",
            f"{values['injected']:.0f}/{values['recovered']:.0f}",
            f"{values['rerouted']:.0f}",
        ])
    return format_table(headers, rows,
                        title=f"{scenario.title} "
                              f"({len(points)} sweep point(s))")


def _metric_series(points: list[dict],
                   metrics: list[dict]) -> list[Series]:
    indices = list(range(len(points)))
    return [Series(metric, list(indices),
                   [values[metric] for values in metrics],
                   x_label="point", y_label=metric)
            for metric in POINT_METRICS]


def scenario_runner(scenario: Scenario):
    """Build the ``runner(fast, fault_plan=None, span_config=None,
    resilience=None) -> PointPlan`` callable the registry drives — the
    generic ScenarioExperiment."""

    def run(fast: bool, fault_plan: FaultPlan | None = None,
            span_config=None, resilience=None):
        from ..experiments.figc_cluster import (_spans_checks_and_render,
                                                _spans_payload)
        from ..experiments.registry import (ExperimentResult, PointPlan,
                                            series_payload)

        points = point_grid(scenario, fast=fast)
        units, names, slices = [], [], []
        for point in points:
            specs, segment_labels = _point_units(
                scenario, point, fast=fast, fault_plan=fault_plan,
                resilience=resilience, span_config=span_config)
            label = point_label(scenario, point)
            start = len(units)
            units.extend(specs)
            names.extend(f"{label}/{segment}"
                         for segment in segment_labels)
            slices.append((start, len(units)))

        def combine(values: list) -> ExperimentResult:
            segments = [[result for result, _spans in values[start:stop]]
                        for start, stop in slices]
            metrics = [_aggregate(point_segments)
                       for point_segments in segments]
            expected = scenario.workload.requests_for(fast)
            checks = _evaluate_checks(scenario, points, metrics, segments,
                                      expected)
            rendered = _render_points(scenario, points, metrics)
            spans_payload: dict = {}
            if span_config is not None:
                # Each (point, traffic segment) unit keeps its own
                # aggregate: a burst window's tail is conditioned
                # against that window, which is the "when and why" the
                # scenario packs ask.
                spans_payload = _spans_payload(span_config, names, values)
                span_checks, span_section = \
                    _spans_checks_and_render(spans_payload)
                checks += span_checks
                rendered += "\n\n" + span_section
            return ExperimentResult(
                scenario.experiment_id, scenario.title, rendered, checks,
                series=series_payload(
                    {"points": _metric_series(points, metrics)}),
                spans=spans_payload)

        return PointPlan(run_cluster_point, units, names, combine)

    run.__name__ = f"run_{scenario.name.replace('-', '_')}"
    run.__doc__ = scenario.description or scenario.title
    return run


def register_scenario(scenario: Scenario) -> None:
    """Register one scenario in :mod:`repro.experiments.registry`.

    The document's content hash folds into the entry's
    ``extra_config`` so the result cache and checkpoint journal key on
    the scenario *text*, not just the code.
    """
    from ..experiments.registry import register

    register(scenario.experiment_id, scenario.title,
             scenario.paper_ref, points=True,
             extra_config={"scenario_sha": scenario.content_hash()})(
        scenario_runner(scenario))
