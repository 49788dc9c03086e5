"""The scenario document model: parse, validate, serialize.

A scenario is one declarative JSON/YAML document describing a
cluster-scale CXL experiment end to end:

* **topology** — fleet size, shard keyspace, pool share, and the CXL
  *device profile* (FPGA-latency vs ASIC-latency per CXLMemSim's
  taxonomy, single vs pooled vs heterogeneous multi-device);
* **workload** — open-loop zipfian parameters (base QPS, skew, write
  fraction, request counts for fast/full modes);
* **traffic** — the arrival shape: ``constant``, ``bursty`` (a calm
  window then a multiplied burst window), or ``diurnal`` (a cycle of
  load levels);
* **faults** — an optional :class:`~repro.faults.FaultPlan` applied to
  every host, an optional mid-run :class:`~repro.cluster.sim.LinkDown`,
  and a ``monotone`` declaration gating the ``fault-monotone`` check;
* **resilience** — an optional
  :class:`~repro.cluster.resilience.ResiliencePolicy` applied to every
  request (deadlines, retries, hedging, circuit breaking, shedding);
  the block folds into the content hash, so toggling a policy is a
  cache miss like any other edit;
* **axes** — sweep axes expanded into the point grid by
  :func:`~repro.scenarios.expand.expand_grid`;
* **checks** — declarative acceptance checks evaluated over the swept
  points and reported as :class:`~repro.analysis.compare.ShapeCheck`
  verdicts.

``parse_scenario -> Scenario.to_dict -> parse_scenario`` is an
identity (the conformance suite pins it), which is what makes the
scenario content hash — and therefore the result-cache key — stable.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Any, Mapping

from ..canonical import canonical_digest
from ..cluster.resilience import ResiliencePolicy
from ..cluster.sim import LinkDown
from ..errors import ClusterError, FaultError
from ..faults import FaultPlan
from .expand import expand_grid, substitute
from .schema import (Field, ValidationError, require, validate_object,
                     validate_value)

NAME_PATTERN = re.compile(r"^[a-z0-9][a-z0-9-]*$")

METRICS = ("p99_us", "p50_us", "mean_service_us", "achieved_qps",
           "pool_utilization", "requests", "injected", "recovered",
           "rerouted", "goodput_qps", "rejected", "retries", "hedges",
           "deadline_exceeded")
"""Per-point metrics a check may reference."""

CHECK_KINDS = ("monotone", "ordering", "bound", "all-complete",
               "faults-recovered", "fault-monotone")

DEVICE_PRESETS = ("combined", "single-socket", "pooled", "hetero-pool")
DEVICE_VARIANTS = ("fpga", "asic")
ROUTERS = ("hash-shard", "least-loaded")
TRAFFIC_SHAPES = ("constant", "bursty", "diurnal")

DEFAULT_PAPER_REF = "scenario pack; extension of §5.2 (pooling outlook)"
DEFAULT_DIURNAL_LEVELS = (0.4, 0.8, 1.0, 0.6)

# Axis name -> (value Field, home section, home key) — the home is the
# scenario field the axis overrides per point; declaring both at once
# is a conflict.
AXES: dict[str, tuple[Field, str, str]] = {
    "qps": (Field("number", minimum=0, exclusive_minimum=True),
            "workload", "qps"),
    "theta": (Field("number", minimum=0, maximum=1,
                    exclusive_minimum=True, exclusive_maximum=True),
              "workload", "theta"),
    "write_fraction": (Field("number", minimum=0, maximum=1),
                       "workload", "write_fraction"),
    "pool_share": (Field("number", minimum=0, maximum=1),
                   "topology", "pool_share"),
    "hosts": (Field("int", minimum=1), "topology", "hosts"),
    "severity": (Field("number", minimum=0), "faults", "severity"),
    "device": (Field("str", choices=DEVICE_VARIANTS),
               "topology", "device"),
}


# --------------------------------------------------------------------------
# Typed model
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class DeviceProfile:
    """Which CXL device stack backs the pool (docs/SCENARIOS.md)."""

    preset: str = "combined"
    variant: str = "fpga"
    devices: int = 1

    def to_dict(self, *, omit_variant: bool = False) -> dict:
        data: dict = {"preset": self.preset}
        if not omit_variant:
            data["variant"] = self.variant
        data["devices"] = self.devices
        return data


@dataclass(frozen=True)
class TopologySpec:
    hosts: int = 4
    keys_per_host: int = 40_000
    pool_share: float = 0.5
    workers: int = 1
    device: DeviceProfile = DeviceProfile()


@dataclass(frozen=True)
class WorkloadSpec:
    qps: float | None = None           # None when swept by the qps axis
    theta: float = 0.99
    write_fraction: float = 0.05
    requests: int = 6_000
    fast_requests: int | None = None

    def requests_for(self, fast: bool) -> int:
        if not fast:
            return self.requests
        if self.fast_requests is not None:
            return self.fast_requests
        return max(400, self.requests // 4)


@dataclass(frozen=True)
class TrafficSpec:
    shape: str = "constant"
    burst_multiplier: float = 2.5
    burst_share: float = 0.25
    levels: tuple[float, ...] = DEFAULT_DIURNAL_LEVELS

    def segments(self, qps: float, requests: int) -> list[tuple]:
        """Deterministic ``(label, qps, requests)`` arrival windows."""
        if self.shape == "constant":
            return [("steady", qps, requests)]
        if self.shape == "bursty":
            burst = max(1, int(round(requests * self.burst_share)))
            calm = max(1, requests - burst)
            return [("calm", qps, calm),
                    ("burst", qps * self.burst_multiplier,
                     requests - calm)]
        share = max(1, requests // len(self.levels))
        segments = []
        for i, level in enumerate(self.levels):
            count = share if i < len(self.levels) - 1 \
                else requests - share * (len(self.levels) - 1)
            segments.append((f"phase{i}", qps * level, max(1, count)))
        return segments


@dataclass(frozen=True)
class FaultSpec:
    plan: FaultPlan
    link_down: LinkDown | None = None
    monotone: bool = False

    def to_dict(self) -> dict:
        data: dict = {"plan": self.plan.to_dict()}
        if self.link_down is not None:
            data["link_down"] = self.link_down.to_dict()
        data["monotone"] = self.monotone
        return data


@dataclass(frozen=True)
class AxisSpec:
    name: str
    values: tuple
    fast: tuple | None = None          # trimmed values for fast mode

    def values_for(self, fast: bool) -> tuple:
        return self.fast if fast and self.fast is not None \
            else self.values


@dataclass(frozen=True)
class CheckSpec:
    kind: str
    metric: str | None = None
    axis: str | None = None
    tolerance: float | None = None
    direction: str | None = None
    min: float | None = None
    max: float | None = None

    def to_dict(self) -> dict:
        data = {"kind": self.kind}
        for key in ("metric", "axis", "tolerance", "direction",
                    "min", "max"):
            value = getattr(self, key)
            if value is not None:
                data[key] = value
        return data


@dataclass(frozen=True)
class Scenario:
    """One parsed, validated scenario document."""

    name: str
    title: str
    description: str
    paper_ref: str
    seed: int
    router: str
    vars: tuple[tuple[str, Any], ...]
    topology: TopologySpec
    workload: WorkloadSpec
    traffic: TrafficSpec
    faults: FaultSpec | None
    resilience: ResiliencePolicy | None
    axes: tuple[AxisSpec, ...]
    checks: tuple[CheckSpec, ...]

    @property
    def experiment_id(self) -> str:
        """The registry id: ``scn-<name>``."""
        return f"scn-{self.name}"

    def axis(self, name: str) -> AxisSpec | None:
        for axis in self.axes:
            if axis.name == name:
                return axis
        return None

    def to_dict(self) -> dict:
        """The canonical document form (round-trips through
        :func:`parse_scenario` exactly).

        Keys controlled by a sweep axis are omitted from their home
        section — emitting both would trip the axis-conflict rule on
        re-parse.
        """
        axis_names = {axis.name for axis in self.axes}
        data: dict = {
            "name": self.name,
            "title": self.title,
            "description": self.description,
            "paper_ref": self.paper_ref,
            "seed": self.seed,
            "router": self.router,
        }
        if self.vars:
            data["vars"] = dict(self.vars)
        topology: dict = {}
        if "hosts" not in axis_names:
            topology["hosts"] = self.topology.hosts
        topology["keys_per_host"] = self.topology.keys_per_host
        if "pool_share" not in axis_names:
            topology["pool_share"] = self.topology.pool_share
        topology["workers"] = self.topology.workers
        topology["device"] = self.topology.device.to_dict(
            omit_variant="device" in axis_names)
        data["topology"] = topology
        workload: dict = {}
        if "qps" not in axis_names and self.workload.qps is not None:
            workload["qps"] = self.workload.qps
        if "theta" not in axis_names:
            workload["theta"] = self.workload.theta
        if "write_fraction" not in axis_names:
            workload["write_fraction"] = self.workload.write_fraction
        workload["requests"] = self.workload.requests
        if self.workload.fast_requests is not None:
            workload["fast_requests"] = self.workload.fast_requests
        data["workload"] = workload
        traffic: dict = {"shape": self.traffic.shape}
        if self.traffic.shape == "bursty":
            traffic["burst_multiplier"] = self.traffic.burst_multiplier
            traffic["burst_share"] = self.traffic.burst_share
        if self.traffic.shape == "diurnal":
            traffic["levels"] = list(self.traffic.levels)
        data["traffic"] = traffic
        if self.faults is not None:
            data["faults"] = self.faults.to_dict()
        if self.resilience is not None:
            data["resilience"] = self.resilience.to_dict()
        if self.axes:
            axes: dict = {}
            for axis in self.axes:
                if axis.fast is not None:
                    axes[axis.name] = {"values": list(axis.values),
                                       "fast": list(axis.fast)}
                else:
                    axes[axis.name] = list(axis.values)
            data["axes"] = axes
        data["checks"] = [check.to_dict() for check in self.checks]
        return data

    def content_hash(self) -> str:
        """A stable digest of the canonical document — the cache-key
        ingredient that makes editing a scenario file a cache miss."""
        return canonical_digest(self.to_dict())[:16]


# --------------------------------------------------------------------------
# Schemas
# --------------------------------------------------------------------------

_DEVICE_SCHEMA = {
    "preset": Field("str", choices=DEVICE_PRESETS, default="combined"),
    "variant": Field("str", choices=DEVICE_VARIANTS, default="fpga"),
    "devices": Field("int", minimum=1, default=1),
}

_TOPOLOGY_SCHEMA = {
    "hosts": Field("int", minimum=1, default=4),
    "keys_per_host": Field("int", minimum=1, default=40_000),
    "pool_share": Field("number", minimum=0, maximum=1, default=0.5),
    "workers": Field("int", minimum=1, default=1),
    "device": Field("object", schema=_DEVICE_SCHEMA, default=None,
                    allow_none=True),
}

_WORKLOAD_SCHEMA = {
    "qps": Field("number", minimum=0, exclusive_minimum=True),
    "theta": Field("number", minimum=0, maximum=1,
                   exclusive_minimum=True, exclusive_maximum=True,
                   default=0.99),
    "write_fraction": Field("number", minimum=0, maximum=1,
                            default=0.05),
    "requests": Field("int", minimum=1, default=6_000),
    "fast_requests": Field("int", minimum=1),
}

_TRAFFIC_SCHEMA = {
    "shape": Field("str", choices=TRAFFIC_SHAPES, default="constant"),
    "burst_multiplier": Field("number", minimum=1,
                              exclusive_minimum=True, default=2.5),
    "burst_share": Field("number", minimum=0, maximum=1,
                         exclusive_minimum=True, exclusive_maximum=True,
                         default=0.25),
    "levels": Field("list", item=Field("number", minimum=0,
                                       exclusive_minimum=True),
                    default=list(DEFAULT_DIURNAL_LEVELS)),
}

_LINK_DOWN_SCHEMA = {
    "host": Field("int", minimum=0, required=True),
    "at_fraction": Field("number", minimum=0, maximum=1,
                         exclusive_minimum=True, exclusive_maximum=True,
                         default=0.5),
}

_FAULTS_SCHEMA = {
    "plan": Field("object"),
    "link_down": Field("object", schema=_LINK_DOWN_SCHEMA),
    "monotone": Field("bool", default=False),
}

_CHECK_COMMON = {
    "kind": Field("str", choices=CHECK_KINDS, required=True),
    "metric": Field("str", choices=METRICS),
    "axis": Field("str"),
    "tolerance": Field("number", minimum=0),
    "direction": Field("str", choices=("nondecreasing", "nonincreasing",
                                       "increasing", "decreasing")),
    "min": Field("number"),
    "max": Field("number"),
}

_TOP_SCHEMA = {
    "name": Field("str", required=True),
    "title": Field("str", required=True),
    "description": Field("str", default=""),
    "paper_ref": Field("str", default=DEFAULT_PAPER_REF),
    "seed": Field("int", minimum=0, default=7),
    "router": Field("str", choices=ROUTERS, default="hash-shard"),
    "vars": Field("object", default=None, allow_none=True),
    "topology": Field("object", required=True),
    "workload": Field("object", required=True),
    "traffic": Field("object", default=None, allow_none=True),
    "faults": Field("object", default=None, allow_none=True),
    "resilience": Field("object", default=None, allow_none=True),
    "axes": Field("object", default=None, allow_none=True),
    "checks": Field("list", required=True,
                    item=Field("object")),
}


# --------------------------------------------------------------------------
# Parsing
# --------------------------------------------------------------------------

def _parse_axes(raw: Mapping[str, Any] | None) -> tuple[AxisSpec, ...]:
    if not raw:
        return ()
    axes: list[AxisSpec] = []
    for name, spec in raw.items():
        path = f"scenario.axes.{name}"
        if name not in AXES:
            raise ValidationError(
                path, f"unknown axis; valid axes: {sorted(AXES)}")
        value_field = AXES[name][0]
        if isinstance(spec, dict):
            body = validate_object(
                spec, {"values": Field("list", required=True),
                       "fast": Field("list")}, path)
            values = body["values"]
            fast = body.get("fast")
        elif isinstance(spec, list):
            values, fast = spec, None
        else:
            raise ValidationError(
                path, "an axis is a value list or "
                      "{\"values\": [...], \"fast\": [...]}")
        values = [validate_value(v, value_field, f"{path}[{i}]")
                  for i, v in enumerate(values)]
        expand_grid({name: values})        # uniqueness / non-empty
        if fast is not None:
            fast = [validate_value(v, value_field,
                                   f"{path}.fast[{i}]")
                    for i, v in enumerate(fast)]
            expand_grid({name: fast})
            stale = [v for v in fast if v not in values]
            require(not stale, f"{path}.fast",
                    f"fast values must be a subset of values: {stale}")
        axes.append(AxisSpec(name, tuple(values),
                             tuple(fast) if fast is not None else None))
    return tuple(axes)


def _parse_checks(raw: list, axes: tuple[AxisSpec, ...],
                  faults: FaultSpec | None) -> tuple[CheckSpec, ...]:
    axis_names = {axis.name for axis in axes}
    checks: list[CheckSpec] = []
    for i, entry in enumerate(raw):
        path = f"scenario.checks[{i}]"
        body = validate_object(entry, _CHECK_COMMON, path)
        kind = body["kind"]
        metric = body.get("metric")
        axis = body.get(
            "axis", "severity" if kind == "fault-monotone" else None)
        if kind in ("monotone", "ordering", "fault-monotone"):
            metric = metric or "p99_us"
            require(axis is not None, f"{path}.axis",
                    f"a {kind!r} check needs an axis")
            require(axis in axis_names, f"{path}.axis",
                    f"axis {axis!r} is not swept by this scenario")
        if kind == "bound":
            require(metric is not None, f"{path}.metric",
                    "a 'bound' check needs a metric")
            require(body.get("min") is not None
                    or body.get("max") is not None,
                    path, "a 'bound' check needs a min and/or a max")
        if kind in ("all-complete", "faults-recovered"):
            extras = {k for k in ("metric", "axis", "tolerance",
                                  "direction", "min", "max")
                      if body.get(k) is not None}
            require(not extras, path,
                    f"a {kind!r} check takes no parameters, "
                    f"got {sorted(extras)}")
        if kind == "fault-monotone":
            require(faults is not None, path,
                    "a 'fault-monotone' check needs a faults.plan")
            require(faults is None or faults.monotone, path,
                    "a 'fault-monotone' check needs faults.monotone "
                    "declared true")
        tolerance = body.get("tolerance")
        if kind in ("monotone", "fault-monotone") and tolerance is None:
            tolerance = 0.0
        direction = body.get("direction")
        if kind in ("monotone", "fault-monotone"):
            direction = direction or "nondecreasing"
            require(direction in ("nondecreasing", "nonincreasing"),
                    f"{path}.direction",
                    f"monotone direction is 'nondecreasing' or "
                    f"'nonincreasing', got {direction!r}")
        if kind == "ordering":
            direction = direction or "increasing"
            require(direction in ("increasing", "decreasing"),
                    f"{path}.direction",
                    f"ordering direction is 'increasing' or "
                    f"'decreasing', got {direction!r}")
        checks.append(CheckSpec(kind=kind, metric=metric, axis=axis,
                                tolerance=tolerance, direction=direction,
                                min=body.get("min"),
                                max=body.get("max")))
    return tuple(checks)


def _parse_vars(raw: Mapping[str, Any] | None) -> tuple:
    if not raw:
        return ()
    pairs = []
    for name, value in raw.items():
        path = f"scenario.vars.{name}"
        require(bool(re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", name)),
                path, "variable names are identifiers")
        require(isinstance(value, (str, int, float, bool)), path,
                f"variable values are scalars, got "
                f"{type(value).__name__}")
        pairs.append((name, value))
    return tuple(pairs)


def parse_scenario(data: Any, *,
                   variables: Mapping[str, Any] | None = None
                   ) -> Scenario:
    """Validate a raw document tree into a :class:`Scenario`.

    ``variables`` override the document's own ``vars`` block before
    placeholder substitution (the proto2testbed environment-variable
    idea, minus the environment: overrides come from the caller so
    parsing stays a pure function of its inputs).
    """
    if not isinstance(data, dict):
        raise ValidationError(
            "scenario", f"expected object, got {type(data).__name__}")
    declared = _parse_vars(data.get("vars")
                           if isinstance(data.get("vars"), dict)
                           else None)
    merged = dict(declared)
    merged.update(variables or {})
    body = {key: value for key, value in data.items() if key != "vars"}
    body = substitute(body, merged)
    if "vars" in data:
        body["vars"] = data["vars"]
    top = validate_object(body, _TOP_SCHEMA, "scenario")

    name = top["name"]
    require(bool(NAME_PATTERN.fullmatch(name)), "scenario.name",
            f"names are lowercase-kebab ([a-z0-9-]), got {name!r}")

    raw_topology = body.get("topology") \
        if isinstance(body.get("topology"), dict) else {}
    topology_body = validate_object(top["topology"], _TOPOLOGY_SCHEMA,
                                    "scenario.topology")
    device_raw = raw_topology.get("device")
    device_body = topology_body.get("device") or validate_object(
        {}, _DEVICE_SCHEMA, "scenario.topology.device")
    if device_body["preset"] in ("combined", "single-socket"):
        require(device_body["devices"] == 1,
                "scenario.topology.device.devices",
                f"preset {device_body['preset']!r} has exactly one "
                f"device")
    device = DeviceProfile(preset=device_body["preset"],
                           variant=device_body["variant"],
                           devices=device_body["devices"])
    topology = TopologySpec(
        hosts=topology_body["hosts"],
        keys_per_host=topology_body["keys_per_host"],
        pool_share=float(topology_body["pool_share"]),
        workers=topology_body["workers"],
        device=device)

    raw_workload = body.get("workload") or {}
    workload_body = validate_object(top["workload"], _WORKLOAD_SCHEMA,
                                    "scenario.workload")
    workload = WorkloadSpec(
        qps=float(workload_body["qps"])
        if "qps" in workload_body else None,
        theta=float(workload_body["theta"]),
        write_fraction=float(workload_body["write_fraction"]),
        requests=workload_body["requests"],
        fast_requests=workload_body.get("fast_requests"))

    traffic_body = validate_object(top.get("traffic") or {},
                                   _TRAFFIC_SCHEMA, "scenario.traffic")
    require(len(traffic_body["levels"]) >= 1, "scenario.traffic.levels",
            "diurnal traffic needs at least one level")
    traffic = TrafficSpec(
        shape=traffic_body["shape"],
        burst_multiplier=float(traffic_body["burst_multiplier"]),
        burst_share=float(traffic_body["burst_share"]),
        levels=tuple(float(level)
                     for level in traffic_body["levels"]))

    faults: FaultSpec | None = None
    if top.get("faults") is not None:
        faults_body = validate_object(top["faults"], _FAULTS_SCHEMA,
                                      "scenario.faults")
        require("plan" in faults_body, "scenario.faults.plan",
                "required field is missing")
        try:
            plan = FaultPlan.from_dict(faults_body["plan"])
        except (FaultError, TypeError) as exc:
            raise ValidationError("scenario.faults.plan",
                                  str(exc)) from exc
        link_down = None
        if "link_down" in faults_body:
            link_body = faults_body["link_down"]
            try:
                link_down = LinkDown(host=link_body["host"],
                                     at_fraction=float(
                                         link_body["at_fraction"]))
            except ClusterError as exc:
                raise ValidationError("scenario.faults.link_down",
                                      str(exc)) from exc
        faults = FaultSpec(plan=plan, link_down=link_down,
                           monotone=faults_body["monotone"])

    resilience: ResiliencePolicy | None = None
    if top.get("resilience") is not None:
        try:
            resilience = ResiliencePolicy.from_dict(top["resilience"])
        except (ClusterError, TypeError) as exc:
            raise ValidationError("scenario.resilience",
                                  str(exc)) from exc
        require(resilience.active, "scenario.resilience",
                "a resilience block must enable at least one policy "
                "(deadline, hedging, breaker, or shedding)")

    axes = _parse_axes(top.get("axes"))

    # -- cross-field conflicts --------------------------------------------
    for axis in axes:
        _, home, key = AXES[axis.name]
        if home == "workload" and key in raw_workload:
            raise ValidationError(
                f"scenario.axes.{axis.name}",
                f"conflicts with the pinned scenario.workload.{key}")
        if home == "topology" and axis.name != "device" \
                and key in raw_topology:
            raise ValidationError(
                f"scenario.axes.{axis.name}",
                f"conflicts with the pinned scenario.topology.{key}")
        if axis.name == "device" and isinstance(device_raw, dict) \
                and "variant" in device_raw:
            raise ValidationError(
                "scenario.axes.device",
                "conflicts with the pinned "
                "scenario.topology.device.variant")
        if axis.name == "severity":
            require(faults is not None, "scenario.axes.severity",
                    "a severity axis needs a scenario.faults.plan "
                    "to scale")

    axis_names = {axis.name for axis in axes}
    require(workload.qps is not None or "qps" in axis_names,
            "scenario.workload.qps",
            "required field is missing (pin it or sweep a qps axis)")

    if faults is not None and faults.link_down is not None:
        hosts_axis = next((a for a in axes if a.name == "hosts"), None)
        min_hosts = min(hosts_axis.values) if hosts_axis \
            else topology.hosts
        require(min_hosts >= 2, "scenario.faults.link_down",
                "a link-down needs a surviving host (hosts >= 2)")
        require(faults.link_down.host < min_hosts,
                "scenario.faults.link_down.host",
                f"host {faults.link_down.host} outside the "
                f"{min_hosts}-host fleet")

    checks = _parse_checks(top["checks"], axes, faults)
    require(len(checks) >= 1, "scenario.checks",
            "a scenario needs at least one acceptance check")

    return Scenario(
        name=name, title=top["title"],
        description=top["description"], paper_ref=top["paper_ref"],
        seed=top["seed"], router=top["router"], vars=declared,
        topology=topology, workload=workload, traffic=traffic,
        faults=faults, resilience=resilience, axes=axes, checks=checks)


def point_grid(scenario: Scenario, *, fast: bool) -> list[dict]:
    """The scenario's concrete sweep points, in deterministic order."""
    axes = {axis.name: list(axis.values_for(fast))
            for axis in scenario.axes}
    return expand_grid(axes)
