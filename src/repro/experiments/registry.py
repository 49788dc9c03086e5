"""The experiment registry: ids, results, and the run-all entry point."""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Callable

from ..analysis.compare import ShapeCheck
from ..errors import ExperimentError


@dataclass
class ExperimentResult:
    """A regenerated table/figure plus its verified shape claims."""

    experiment_id: str
    title: str
    rendered: str                        # the figure, as text tables
    checks: list[ShapeCheck] = field(default_factory=list)
    series: dict = field(default_factory=dict)
    # {panel: {series: {"x": [...], "y": [...], ...}}} — numeric payload
    # mirroring the rendered tables, for machine diffing.
    spans: dict = field(default_factory=dict)
    # Span-attribution payload ({"config": ..., "points": {...}}) when
    # the run recorded per-request spans; empty otherwise.  Kept out of
    # to_dict() when empty so spans-off output is unchanged.

    @property
    def passed(self) -> bool:
        return all(check.passed for check in self.checks)

    def render(self) -> str:
        lines = [f"### {self.experiment_id}: {self.title}", "",
                 self.rendered, ""]
        lines += [str(check) for check in self.checks]
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form: id, pass/fail, checks, series data."""
        data = {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "passed": self.passed,
            "checks": [{"claim": check.claim,
                        "passed": check.passed,
                        "measured": check.measured}
                       for check in self.checks],
            "series": self.series,
        }
        if self.spans:
            data["spans"] = self.spans
        return data

    def payload(self) -> dict:
        """Full JSON round-trip form (everything :meth:`from_payload`
        needs to rebuild an identical result — the result-cache
        format)."""
        data = self.to_dict()
        data["rendered"] = self.rendered
        return data

    @classmethod
    def from_payload(cls, data: dict) -> "ExperimentResult":
        """Rebuild a result from :meth:`payload` output.

        Round-trip exact: ``from_payload(r.payload())`` renders, saves,
        and serializes identically to ``r`` (the cache-hit determinism
        tests pin this down).
        """
        checks = [ShapeCheck(check["claim"], check["passed"],
                             check["measured"])
                  for check in data["checks"]]
        return cls(experiment_id=data["experiment_id"],
                   title=data["title"],
                   rendered=data["rendered"],
                   checks=checks,
                   series=data["series"],
                   spans=data.get("spans") or {})


def series_payload(report) -> dict:
    """Numeric panel/series payload of a :class:`BenchReport`.

    The text render is for humans; this is the same data in a shape
    ``json.dumps`` accepts, so experiment runs can be diffed
    mechanically (``results/<id>.json`` next to ``results/<id>.txt``).
    Accepts a report (anything with ``.panels``) or a plain
    ``{panel: [Series, ...]}`` mapping.
    """
    panels = report if isinstance(report, dict) else report.panels
    return {
        panel: {series.name: {"x": list(series.x),
                              "y": list(series.y),
                              "x_label": series.x_label,
                              "y_label": series.y_label}
                for series in series_list}
        for panel, series_list in panels.items()
    }


@dataclass(frozen=True)
class PointPlan:
    """An experiment's independent sweep points and how to combine them.

    ``fn(spec)`` runs one point: a module-level function of one
    picklable spec, so a point can run in a worker process.
    ``combine(values)`` takes the point values in spec order and builds
    the result; it runs in the calling process and simulates nothing.
    ``labels`` name the points (``figC[qps=60k,skew=0.7,pool=25%]``).
    """

    fn: Callable[[Any], Any]
    specs: list
    labels: list[str]
    combine: Callable[[list], ExperimentResult]


@dataclass(frozen=True)
class Experiment:
    """A registered experiment: metadata plus a runner callable."""

    experiment_id: str
    title: str
    paper_ref: str                       # e.g. "Fig. 3, §4.3.1"
    runner: Callable[..., ExperimentResult | PointPlan]
    points: bool = False
    # True when the runner returns a PointPlan instead of a result:
    # repro-experiments runs each of its points as one unit.
    accepts_faults: bool = False
    # True when the runner takes a ``fault_plan`` keyword — it can run
    # its simulations under a degraded-mode FaultPlan (docs/FAULTS.md).
    accepts_spans: bool = False
    # True when the runner takes a ``span_config`` keyword — it records
    # per-request spans for tail attribution (docs/TELEMETRY.md).
    accepts_resilience: bool = False
    # True when the runner takes a ``resilience`` keyword — its cluster
    # simulations can run under a ResiliencePolicy (docs/CLUSTER.md).
    extra_config: tuple | None = None
    # Extra (key, value) pairs folded into this experiment's cache /
    # checkpoint config.  Scenario-derived experiments carry their
    # document content hash here: package_fingerprint() only hashes
    # *.py, so without this an edited scenario file would silently hit
    # a stale cached result.

    def plan(self, *, fast: bool = True, fault_plan=None,
             span_config=None, resilience=None) -> PointPlan:
        """The :class:`PointPlan` of a point experiment (``points``);
        takes the same keywords as :meth:`run`."""
        if not self.points:
            raise ExperimentError(
                f"experiment {self.experiment_id!r} has no sweep points")
        return self.runner(fast, **self._kwargs(fault_plan, span_config,
                                                resilience))

    def run(self, *, fast: bool = True, fault_plan=None,
            span_config=None, resilience=None) -> ExperimentResult:
        """Execute in this process; ``fast`` trims sweep sizes for
        CI-speed runs.

        A point experiment runs its points one after another and
        combines them.  ``fault_plan`` overrides the baseline
        fault configuration for experiments that accept one; passing a
        plan to one that does not is an error (silently dropping a
        fault request would misreport healthy numbers as degraded).
        ``span_config`` likewise: experiments that accept one record
        per-request spans, and passing it to one that does not raises
        (a silently un-spanned run would look like spans found nothing).
        ``resilience`` likewise again: a ResiliencePolicy for the
        cluster experiments that take one — a silently dropped policy
        would report unprotected numbers as protected.
        """
        out = self.runner(fast, **self._kwargs(fault_plan, span_config,
                                               resilience))
        if not self.points:
            return out
        return out.combine([out.fn(spec) for spec in out.specs])

    def _kwargs(self, fault_plan, span_config, resilience) -> dict:
        kwargs: dict = {}
        if fault_plan is not None:
            if not self.accepts_faults:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} does not accept "
                    f"a fault plan")
            kwargs["fault_plan"] = fault_plan
        if span_config is not None:
            if not self.accepts_spans:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} does not accept "
                    f"a span config")
            kwargs["span_config"] = span_config
        if resilience is not None:
            if not self.accepts_resilience:
                raise ExperimentError(
                    f"experiment {self.experiment_id!r} does not accept "
                    f"a resilience policy")
            kwargs["resilience"] = resilience
        return kwargs


REGISTRY: dict[str, Experiment] = {}

# Paper-figure aliases for extension experiments ("figF" is how the
# roadmap refers to the degraded-mode figure; the registry id is the
# descriptive name).
ALIASES: dict[str, str] = {"figF": "degraded-cxl",
                           "figC": "cluster-pooling",
                           "figC-deg": "cluster-degraded",
                           "figR": "cluster-resilient",
                           "figR-storm": "cluster-retry-storm"}


def register(experiment_id: str, title: str, paper_ref: str, *,
             points: bool = False, extra_config: dict | None = None):
    """Decorator registering ``runner(fast) -> ExperimentResult``, or
    with ``points=True`` a ``runner(fast) -> PointPlan``."""

    def wrap(runner: Callable[..., ExperimentResult]) -> Callable:
        if experiment_id in REGISTRY:
            raise ExperimentError(
                f"duplicate experiment id {experiment_id!r}")
        params = inspect.signature(runner).parameters
        REGISTRY[experiment_id] = Experiment(
            experiment_id, title, paper_ref, runner,
            points=points,
            accepts_faults="fault_plan" in params,
            accepts_spans="span_config" in params,
            accepts_resilience="resilience" in params,
            extra_config=tuple(sorted(extra_config.items()))
            if extra_config else None)
        return runner

    return wrap


def resolve_id(experiment_id: str) -> str:
    """Map an alias (``figF``) to its canonical registry id."""
    return ALIASES.get(experiment_id, experiment_id)


def get(experiment_id: str) -> Experiment:
    experiment_id = resolve_id(experiment_id)
    if experiment_id not in REGISTRY:
        raise ExperimentError(
            f"no experiment {experiment_id!r}; available: "
            f"{sorted(REGISTRY)}")
    return REGISTRY[experiment_id]


def run_all(*, fast: bool = True) -> list[ExperimentResult]:
    """Run every registered experiment in id order."""
    return [REGISTRY[eid].run(fast=fast) for eid in sorted(REGISTRY)]
