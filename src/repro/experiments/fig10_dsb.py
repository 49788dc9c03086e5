"""Figure 10: DeathStarBench p99 latency and memory breakdown."""

from __future__ import annotations

from .. import build_system, combined_testbed
from ..analysis.compare import ShapeCheck, check_ratio
from ..analysis.tables import format_table, series_table
from ..apps.dsb import DsbRunner, RequestType, memory_breakdown
from ..apps.dsb.socialnet import MIXED_WORKLOAD, SocialNetwork
from ..parallel.sweeps import run_sim_point
from .registry import ExperimentResult, PointPlan, register, series_payload

REQUEST_TYPES = (RequestType.COMPOSE_POST, RequestType.READ_USER_TIMELINE,
                 None)


@register("fig10", "DeathStarBench p99 latency and memory breakdown",
          "Fig. 10, §5.3", points=True)
def run(fast: bool) -> PointPlan:
    system = build_system(combined_testbed())
    dram = DsbRunner(system, database_node=system.LOCAL_NODE)
    cxl = DsbRunner(system, database_node=system.cxl_node_id)
    qps_points = [200.0, 600.0, 1200.0] if fast else [100.0, 200.0, 400.0,
                                                      600.0, 900.0, 1200.0,
                                                      1600.0]
    requests = 1500 if fast else 5000

    # One unit per (type, backend, QPS) point, in that nesting order.
    combos = [(runner, request_type)
              for request_type in REQUEST_TYPES
              for runner in (dram, cxl)]
    specs, labels = [], []
    for runner, request_type in combos:
        for qps in qps_points:
            specs.append(runner.point_spec(qps, request_type=request_type,
                                           requests=requests))
            labels.append(f"fig10[{runner.curve_name(request_type)},"
                          f"qps={qps:g}]")

    def combine(values: list) -> ExperimentResult:
        count = len(qps_points)
        all_curves = [
            runner.p99_series(qps_points,
                              values[index * count:(index + 1) * count],
                              request_type=request_type)
            for index, (runner, request_type) in enumerate(combos)]
        return _result(system, qps_points, all_curves)

    return PointPlan(run_sim_point, specs, labels, combine)


def _result(system, qps_points, all_curves) -> ExperimentResult:
    panels = []
    per_type_curves = {}
    for index, request_type in enumerate(REQUEST_TYPES):
        name = request_type.value if request_type else "mixed"
        curves = all_curves[2 * index:2 * index + 2]
        per_type_curves[name] = curves
        panels.append(series_table(curves, y_format="{:.2f}",
                                   title=f"Fig 10: {name} p99 (ms)"))

    breakdown = memory_breakdown()
    panels.append(format_table(
        ["component", "memory share"],
        [[name, f"{share * 100:.0f}%"]
         for name, share in breakdown.items()],
        title="Fig 10 (right): memory breakdown"))

    compose_gap = (per_type_curves["compose-post"][1].y_at(qps_points[0])
                   / per_type_curves["compose-post"][0].y_at(qps_points[0]))
    user_gap = (per_type_curves["read-user-timeline"][1].y_at(qps_points[0])
                / per_type_curves["read-user-timeline"][0].y_at(
                    qps_points[0]))
    dram_net = SocialNetwork(system, database_node=system.LOCAL_NODE)
    cxl_net = SocialNetwork(system, database_node=system.cxl_node_id)
    sat_ratio = (cxl_net.saturation_qps(MIXED_WORKLOAD)
                 / dram_net.saturation_qps(MIXED_WORKLOAD))

    checks = [
        ShapeCheck("compose-post shows a visible CXL p99 gap",
                   compose_gap > 1.1, f"gap={compose_gap:.2f}x"),
        ShapeCheck("read-user-timeline shows little to no difference",
                   user_gap < 1.12, f"gap={user_gap:.2f}x"),
        ShapeCheck("DSB latencies are ms-level (vs Redis' us-level)",
                   per_type_curves["mixed"][0].y_at(qps_points[0]) > 0.5,
                   f"{per_type_curves['mixed'][0].y_at(qps_points[0]):.2f} ms"),
        check_ratio("mixed-workload saturation point similar on CXL",
                    sat_ratio, 1.0, 1.0, 0.35),
        ShapeCheck("databases dominate the memory footprint",
                   breakdown["storage"] + breakdown["cache"] > 0.6,
                   f"storage+cache="
                   f"{(breakdown['storage'] + breakdown['cache']) * 100:.0f}%"),
    ]
    return ExperimentResult("fig10", "DeathStarBench p99 latency",
                            "\n\n".join(panels), checks,
                            series=series_payload(
                                {f"fig10-{name}": curves
                                 for name, curves in
                                 per_type_curves.items()}))
