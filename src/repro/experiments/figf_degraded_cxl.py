"""Fig F (extension): degraded-mode CXL — tail latency under faults.

The paper measures healthy hardware; its RAS discussion (§2.1: per-flit
CRC with link-layer retry, data poisoning) is what this extension
exercises.  We sweep a severity multiplier over a baseline
:class:`~repro.faults.FaultPlan` (CRC errors, poisoned reads, transient
timeouts, device stalls) and drive the mechanism-level end-to-end read
simulator under each plan.  Faults are injected with counter-based
draws (docs/FAULTS.md), so the sweep is deterministic wherever its
points run, and fault sets *nest* as severity grows — which is why the
reported tail inflation is monotone rather than merely trending up.

Registered as ``degraded-cxl`` (alias ``figF``).
"""

from __future__ import annotations

from ..analysis.compare import ShapeCheck, check_monotone
from ..analysis.series import Series
from ..analysis.tables import series_table
from ..cxl.e2e_sim import CxlEndToEndSim
from ..faults import ZERO_FAULTS, FaultPlan
from ..parallel.sweeps import run_sim_point
from .registry import ExperimentResult, PointPlan, register, series_payload

# The 1x plan: roughly one CRC-failed flit per hundred, one poisoned
# read per five hundred, rare transient timeouts, and occasional 400 ns
# device stalls.  Severity scales these rates together.
BASE_PLAN = FaultPlan(crc_rate=0.01, poison_rate=0.002,
                      timeout_rate=0.001, stall_rate=0.01,
                      stall_ns=400.0, seed=11)
THREADS = 4


@register("degraded-cxl", "Degraded-mode CXL tail latency",
          "extension of §2.1 (RAS) + §4.3.1", points=True)
def run(fast: bool, fault_plan: FaultPlan | None = None) -> PointPlan:
    base = fault_plan if fault_plan is not None else BASE_PLAN
    severities = [0.0, 0.25, 1.0, 4.0] if fast \
        else [0.0, 0.25, 1.0, 2.0, 4.0, 8.0]
    lines = 600 if fast else 2000
    # One point per severity, then the zero-plan twin: the zero-plan
    # fast path must be byte-identical to an explicit all-zero-rates
    # plan (the "faults off means OFF" contract).
    plans = [base.scaled(severity) if severity > 0 else None
             for severity in severities] + [ZERO_FAULTS]
    run_kwargs = {"threads": THREADS, "lines_per_thread": lines}
    specs = [(CxlEndToEndSim, {"fault_plan": plan}, run_kwargs)
             for plan in plans]
    labels = [f"figF[severity={severity:g}x]" for severity in severities]
    labels.append("figF[zero-plan]")
    return PointPlan(run_sim_point, specs, labels,
                     lambda values: _result(severities, lines, values[:-1],
                                            values[-1]))


def _result(severities: list[float], lines: int, results: list,
            zero_plan_result) -> ExperimentResult:
    baseline = results[0]
    x_kw = {"x_label": "severity"}
    p50 = Series("p50-ns", list(severities),
                 [r.p50_ns for r in results], y_label="ns", **x_kw)
    p99 = Series("p99-ns", list(severities),
                 [r.p99_ns for r in results], y_label="ns", **x_kw)
    inflation = p99.normalized_to(baseline.p99_ns, "p99-inflation")
    bandwidth = Series("GB/s", list(severities),
                       [r.gb_per_s for r in results],
                       y_label="GB/s", **x_kw)
    injected = Series("faults", list(severities),
                      [float(r.faults_injected) for r in results],
                      y_label="count", **x_kw)
    series_list = [p50, p99, inflation, bandwidth, injected]

    expected = THREADS * lines
    checks = [
        check_monotone("p99 read latency inflates monotonically with "
                       "fault severity", inflation),
        ShapeCheck("fault-free and zero-rate-plan runs are identical",
                   zero_plan_result == baseline,
                   f"p99 {zero_plan_result.p99_ns:.3f} vs "
                   f"{baseline.p99_ns:.3f}, "
                   f"inj {zero_plan_result.faults_injected}"),
        ShapeCheck("zero severity injects zero faults",
                   baseline.faults_injected == 0,
                   f"injected={baseline.faults_injected}"),
        ShapeCheck("top severity injects faults",
                   results[-1].faults_injected > 0,
                   f"injected={results[-1].faults_injected}"),
        ShapeCheck("every injected fault is recovered, every read "
                   "completes",
                   all(r.faults_injected == r.faults_recovered
                       and r.completed == expected for r in results),
                   f"worst gap={max(r.faults_injected - r.faults_recovered for r in results)}, "
                   f"completed={results[-1].completed}/{expected}"),
        ShapeCheck("bandwidth never rises with severity",
                   all(after <= before for before, after
                       in zip(bandwidth.y, bandwidth.y[1:])),
                   " >= ".join(f"{value:.2f}" for value in bandwidth.y)),
    ]
    rendered = series_table(
        series_list,
        title=f"Degraded-mode CXL reads ({THREADS} threads, "
              f"{lines} lines/thread; severity x baseline plan)",
        y_format="{:.2f}")
    return ExperimentResult(
        "degraded-cxl", "Degraded-mode CXL tail latency", rendered,
        checks, series=series_payload({"degraded-cxl": series_list}))
