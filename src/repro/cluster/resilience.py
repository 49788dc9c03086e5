"""Request-level resilience policies for the cluster simulator.

A :class:`ResiliencePolicy` gives :class:`~repro.cluster.sim.ClusterSim`
requests the defenses production fleets run when a CXL link degrades —
the paper's tail-latency story continued past "the tail gets worse"
into "what a service does about it":

* **deadlines** — a per-attempt timeout; a request whose every attempt
  expires is classified ``deadline_exceeded`` instead of dragging the
  open-loop tail unbounded;
* **retries** — bounded re-issues after a deadline expiry, with seeded
  exponential backoff and a fleet-wide retry *budget* (retries per
  admitted request).  An uncapped budget reproduces the metastable
  retry-storm collapse: abandoned attempts still consume server time,
  so goodput falls off a cliff past the saturation knee;
* **hedging** — a tail-latency secondary attempt to another
  pool-capable host after a quantile-derived delay, first-wins cancel
  (the CXL pool is shared fabric memory, so any healthy host can serve
  a pool-resident record);
* **circuit breaking** — an EWMA-latency breaker that ejects sick
  hosts from routing for a cooldown, composing with
  :class:`~repro.cluster.routing.HostView` health.  The breaker never
  ejects the last healthy host;
* **load shedding** — queue-depth admission control with an explicit
  ``rejected`` outcome instead of unbounded queueing.

Every decision is a pure function of ``(seed, config)`` — backoff
jitter and the hedge delay come from the counter-based RNG streams of
:mod:`repro.sim.rng` — so serial and ``--jobs N`` runs stay
byte-identical.  The policy layer emits its own span segments
(``retry.backoff``, ``hedge.wait``, ``shed.reject``, ``deadline.wait``)
through :mod:`repro.telemetry.spans`; see docs/CLUSTER.md for the
knob → scenario field → span segment table.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from ..apps.kvstore.store import (CPU_BASE_NS, CPU_JITTER_SIGMA,
                                  EFFECTIVE_MISSES_MEAN, MISS_JITTER_SIGMA)
from ..errors import ClusterError, unknown_option
from ..kvspec import KeyValueSpec
from ..sim.rng import substream
from .routing import HostView

# Span segment names the policy layer adds (docs/CLUSTER.md).
RETRY_BACKOFF = "retry.backoff"
"""Exponential-backoff wait before a retry attempt is re-issued."""

HEDGE_WAIT = "hedge.wait"
"""Time the client waited before launching the hedged secondary."""

SHED_REJECT = "shed.reject"
"""Fast-fail turnaround of an admission-control rejection."""

DEADLINE_WAIT = "deadline.wait"
"""One expired attempt window (issue to deadline) of a failed request."""

SHED_REJECT_NS = 1_000.0
"""Balancer fast-fail turnaround: a rejection costs one redirect RTT."""

HEDGE_SAMPLES = 512
"""Service-model samples behind the quantile-derived hedge delay."""

_DURATION_FIELDS = ("deadline_ns", "backoff_base_ns",
                    "breaker_cooldown_ns")

_SPEC = KeyValueSpec(
    keys={
        "deadline-ns": ("deadline_ns", float),
        "retries": ("retries", int),
        "backoff-ns": ("backoff_base_ns", float),
        "budget": ("retry_budget", float),
        "hedge": ("hedge_quantile", float),
        "breaker": ("breaker_factor", float),
        "breaker-alpha": ("breaker_alpha", float),
        "breaker-min": ("breaker_min_requests", int),
        "breaker-cooldown-ns": ("breaker_cooldown_ns", float),
        "shed": ("shed_inflight", int),
    },
    error=ClusterError,
    malformed="resilience spec entries are key=value, got {part!r}",
    unknown_key="unknown resilience knob {key!r}; available: {available}",
    bad_value="bad value for {key!r}: {value!r}",
    owner="ResiliencePolicy")


@dataclass(frozen=True)
class ResiliencePolicy:
    """One run's declarative request-lifecycle policy.

    Frozen and picklable — it travels into worker processes, result
    cache keys, and scenario documents unchanged, exactly like
    :class:`~repro.faults.FaultPlan`.  A zero value disables the
    corresponding policy; the all-zero policy is no policy at all
    (:attr:`active` is False, and the run reports no
    :class:`ResilienceStats`).
    """

    deadline_ns: float = 0.0           # 0 = no deadline
    retries: int = 0                   # extra attempts after the first
    backoff_base_ns: float = 2_000.0   # retry backoff base (doubles)
    retry_budget: float | None = None  # retries per admitted request;
    #                                    None = uncapped (storm mode)
    hedge_quantile: float = 0.0        # 0 = hedging off
    breaker_factor: float = 0.0        # 0 = breaker off; opens when
    #                                    EWMA > factor * reference
    breaker_alpha: float = 0.2         # EWMA smoothing weight
    breaker_min_requests: int = 32     # evidence before an open
    breaker_cooldown_ns: float = 400_000.0
    shed_inflight: int = 0             # 0 = shedding off; reject when
    #                                    busy + queued >= this

    def __post_init__(self) -> None:
        for name in (*_DURATION_FIELDS, "breaker_factor"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ClusterError(f"{name} must be finite: {value}")
        for name in _DURATION_FIELDS:
            if getattr(self, name) < 0.0:
                raise ClusterError(f"{name} must be non-negative")
        if self.retries < 0:
            raise ClusterError(
                f"retries must be non-negative: {self.retries}")
        if self.retries > 0 and self.deadline_ns <= 0.0:
            raise ClusterError(
                "retries need a deadline_ns to trigger on")
        if self.retry_budget is not None:
            if not self.retry_budget > 0.0:
                raise ClusterError(
                    f"retry_budget must be positive (or None for "
                    f"uncapped): {self.retry_budget}")
            if self.retries == 0:
                raise ClusterError(
                    "a retry_budget without retries caps nothing")
        if not 0.0 <= self.hedge_quantile < 1.0:
            raise ClusterError(
                f"hedge_quantile must be in [0, 1): "
                f"{self.hedge_quantile}")
        if self.breaker_factor < 0.0:
            raise ClusterError(
                f"breaker_factor must be non-negative: "
                f"{self.breaker_factor}")
        if not 0.0 < self.breaker_alpha <= 1.0:
            raise ClusterError(
                f"breaker_alpha must be in (0, 1]: {self.breaker_alpha}")
        if self.breaker_min_requests < 1:
            raise ClusterError("breaker_min_requests must be >= 1")
        if self.shed_inflight < 0:
            raise ClusterError(
                f"shed_inflight must be non-negative: "
                f"{self.shed_inflight}")

    # -- derived -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when this policy can change a run at all.

        An inactive policy runs the same request lifecycle as no
        policy and reports no :class:`ResilienceStats` (mirrors
        :attr:`~repro.faults.FaultPlan.active`).
        """
        return (self.deadline_ns > 0.0 or self.hedge_quantile > 0.0
                or self.breaker_factor > 0.0 or self.shed_inflight > 0)

    @property
    def hedging(self) -> bool:
        return self.hedge_quantile > 0.0

    @property
    def breaking(self) -> bool:
        return self.breaker_factor > 0.0

    @property
    def shedding(self) -> bool:
        return self.shed_inflight > 0

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible form (cache-key and scenario material)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "ResiliencePolicy":
        _SPEC.check_fields(data)
        return cls(**data)

    @classmethod
    def parse(cls, spec: str) -> "ResiliencePolicy":
        """Build a policy from a CLI spec like
        ``deadline-ns=60000,retries=2,budget=0.1``.

        Keys: ``deadline-ns retries backoff-ns budget hedge breaker
        breaker-alpha breaker-min breaker-cooldown-ns shed``.  A key
        given twice is refused.
        """
        return cls(**_SPEC.parse(spec))


ZERO_POLICY = ResiliencePolicy()
"""The inactive policy: changes nothing, costs nothing."""

PRESETS: dict[str, ResiliencePolicy] = {
    "none": ZERO_POLICY,
    "deadline": ResiliencePolicy(deadline_ns=120_000.0),
    "hedged": ResiliencePolicy(hedge_quantile=0.95,
                               breaker_factor=4.0),
    "guarded": ResiliencePolicy(deadline_ns=120_000.0, retries=2,
                                retry_budget=0.1, shed_inflight=16),
    "unbudgeted": ResiliencePolicy(deadline_ns=120_000.0, retries=3),
}
"""Named policy bundles the CLI and scenario docs can reference."""


def make_policy(name: str) -> ResiliencePolicy:
    """Look up a preset policy by name (mirrors ``make_router``)."""
    if name not in PRESETS:
        raise ClusterError(
            unknown_option("resilience policy", name, PRESETS))
    return PRESETS[name]


def parse_policy(spec: str) -> ResiliencePolicy:
    """A preset name or a ``key=value,...`` spec → policy.

    The ``--resilience`` CLI entry point: ``hedged`` resolves the
    preset, ``deadline-ns=60000,retries=2`` builds a custom policy,
    anything else raises the uniform unknown-option error.
    """
    if "=" in spec:
        return ResiliencePolicy.parse(spec)
    return make_policy(spec)


# --------------------------------------------------------------------------
# Runtime state machines (one instance per simulation run)
# --------------------------------------------------------------------------

class RetryBudget:
    """Fleet-wide retry token accounting.

    A retry is allowed while the total issued so far stays under
    ``ratio`` x the number of admitted requests; ``ratio=None`` is the
    uncapped storm configuration.  State evolves with the (fully
    deterministic) event order of one DES run, so serial and sharded
    sweeps agree.
    """

    def __init__(self, ratio: float | None) -> None:
        self.ratio = ratio
        self.admitted = 0
        self.issued = 0
        self.suppressed = 0

    def note_admitted(self) -> None:
        self.admitted += 1

    def allow(self) -> bool:
        if self.ratio is not None \
                and self.issued >= self.ratio * self.admitted:
            self.suppressed += 1
            return False
        self.issued += 1
        return True


class CircuitBreaker:
    """Per-host EWMA-latency breaker over attempt sojourn times.

    Observes every attempt's issue-to-completion latency (queue wait
    included — that *is* the sickness signal) and opens a host for
    ``cooldown_ns`` once its EWMA exceeds ``factor`` x the unloaded
    reference service time with at least ``min_requests`` of evidence.
    Opening resets the host's EWMA so a re-open needs fresh
    post-cooldown evidence.

    :meth:`filter_views` marks open hosts down for routing — but never
    the last healthy host: a breaker that can empty the fleet converts
    a slow host into a total outage, which is strictly worse.
    """

    def __init__(self, policy: ResiliencePolicy, num_hosts: int, *,
                 reference_ns: float) -> None:
        self.factor = policy.breaker_factor
        self.alpha = policy.breaker_alpha
        self.min_requests = policy.breaker_min_requests
        self.cooldown_ns = policy.breaker_cooldown_ns
        self.reference_ns = reference_ns
        self.ewma = [0.0] * num_hosts
        self.count = [0] * num_hosts
        self.open_until = [0.0] * num_hosts
        self.opens = 0

    def observe(self, host: int, latency_ns: float,
                now: float) -> None:
        if self.count[host] == 0:
            self.ewma[host] = latency_ns
        else:
            self.ewma[host] = self.alpha * latency_ns \
                + (1.0 - self.alpha) * self.ewma[host]
        self.count[host] += 1
        if (self.count[host] >= self.min_requests
                and self.ewma[host] > self.factor * self.reference_ns
                and now >= self.open_until[host]):
            self.open_until[host] = now + self.cooldown_ns
            self.opens += 1
            self.count[host] = 0
            self.ewma[host] = 0.0

    def is_open(self, host: int, now: float) -> bool:
        return now < self.open_until[host]

    def filter_views(self, views: list[HostView],
                     now: float) -> list[HostView]:
        """Routing views with open hosts marked down — unless that
        would leave zero healthy hosts."""
        ejectable = [view.index for view in views
                     if view.up and self.is_open(view.index, now)]
        if not ejectable:
            return views
        healthy = sum(1 for view in views if view.up)
        if healthy - len(ejectable) < 1:
            return views           # never eject the last healthy host
        ejected = set(ejectable)
        return [HostView(view.index,
                         up=view.up and view.index not in ejected,
                         in_flight=view.in_flight) for view in views]


def hedge_delay_ns(seed: int, quantile: float, *,
                   miss_ns: float) -> float:
    """The hedge launch delay: a quantile of the unloaded service model.

    Draws a fixed :data:`HEDGE_SAMPLES`-point sample of the kvstore
    service-time model (CPU work plus dependent misses at ``miss_ns``
    each) from the dedicated ``cluster/hedge`` substream and takes the
    requested percentile — a pure function of ``(seed, quantile,
    miss_ns)``, so every worker computes the identical delay.
    """
    rng = substream("cluster/hedge", seed)
    cpu = CPU_BASE_NS * rng.lognormal(0.0, CPU_JITTER_SIGMA,
                                      size=HEDGE_SAMPLES)
    misses = EFFECTIVE_MISSES_MEAN * rng.lognormal(
        0.0, MISS_JITTER_SIGMA, size=HEDGE_SAMPLES)
    return float(np.quantile(cpu + misses * miss_ns,
                             quantile))


@dataclass(frozen=True)
class ResilienceStats:
    """Fleet-wide request-outcome accounting of one policied run.

    ``ok + ok_retried + ok_hedged + deadline_exceeded + rejected``
    equals the run's request count — every request lands in exactly one
    outcome bucket.
    """

    ok: int = 0                        # first attempt won, unhedged win
    ok_retried: int = 0                # a retry attempt won
    ok_hedged: int = 0                 # the hedged secondary won
    deadline_exceeded: int = 0         # every attempt timed out
    rejected: int = 0                  # shed by admission control
    retries_issued: int = 0
    retries_suppressed: int = 0        # denied by the retry budget
    hedges_launched: int = 0
    hedge_wins: int = 0
    breaker_opens: int = 0
    wasted_ns: float = 0.0             # service burned by losing attempts

    @property
    def successes(self) -> int:
        return self.ok + self.ok_retried + self.ok_hedged

    @property
    def failures(self) -> int:
        return self.deadline_exceeded + self.rejected

    def to_dict(self) -> dict:
        return asdict(self)
