"""The :class:`FaultPlan`: one run's declarative fault configuration.

A plan is a frozen, picklable value object — it travels unchanged into
worker processes, into result-cache keys, and into saved experiment
JSON, which is what makes faulty runs reproducible and cacheable.  All
probabilities are *per decision point* (per flit for CRC, per request
for the rest); durations are nanoseconds, consistent with
:mod:`repro.units`.

The knobs model the misbehaviors the paper's Agilex-I device exhibits
under load (§4.3–§4.5) plus the standard CXL RAS machinery:

===================  ====================================================
``crc_rate``         per-flit CRC failure; the link-layer retry buffer
                     retransmits (the 2 B CRC in every 68 B flit, §2.1)
``poison_rate``      per-response data poisoning; the host discards the
                     DRS and re-issues the read after a backoff
``timeout_rate``     per-request transient controller timeout; the host
                     re-issues after ``timeout_ns``
``stall_rate``       per-request device write-buffer / scheduler stall
                     of ``stall_ns`` (§4.3.2's buffer backpressure)
``link_width_fraction`` / ``link_speed_fraction``
                     degraded link operation (e.g. a Gen5 x16 port
                     retrained to x8 is ``width=0.5``)
===================  ====================================================
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, replace

from ..errors import FaultError
from ..kvspec import KeyValueSpec

_RATE_FIELDS = ("crc_rate", "poison_rate", "timeout_rate", "stall_rate")

_SPEC = KeyValueSpec(
    keys={
        "crc": ("crc_rate", float),
        "poison": ("poison_rate", float),
        "timeout": ("timeout_rate", float),
        "stall": ("stall_rate", float),
        "stall-ns": ("stall_ns", float),
        "timeout-ns": ("timeout_ns", float),
        "backoff-ns": ("retry_backoff_ns", float),
        "retries": ("max_retries", int),
        "width": ("link_width_fraction", float),
        "speed": ("link_speed_fraction", float),
        "seed": ("seed", int),
    },
    error=FaultError,
    malformed="fault spec entries are key=value, got {part!r}",
    unknown_key="unknown fault knob {key!r}; available: {available}",
    bad_value="bad value for {key!r}: {value!r}",
    owner="FaultPlan")


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic, seedable fault configuration for one run."""

    crc_rate: float = 0.0
    poison_rate: float = 0.0
    timeout_rate: float = 0.0
    stall_rate: float = 0.0
    stall_ns: float = 400.0
    timeout_ns: float = 2_000.0
    retry_backoff_ns: float = 200.0
    max_retries: int = 8
    link_width_fraction: float = 1.0
    link_speed_fraction: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in _RATE_FIELDS:
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise FaultError(f"{name} must be in [0, 1): {rate}")
        for name in ("stall_ns", "timeout_ns", "retry_backoff_ns"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise FaultError(f"{name} must be finite: {value}")
            if value < 0.0:
                raise FaultError(f"{name} must be non-negative")
        for name in ("link_width_fraction", "link_speed_fraction"):
            fraction = getattr(self, name)
            if not 0.0 < fraction <= 1.0:
                raise FaultError(f"{name} must be in (0, 1]: {fraction}")
        if self.max_retries < 1:
            raise FaultError("max_retries must be at least 1")

    # -- derived -----------------------------------------------------------

    @property
    def active(self) -> bool:
        """True when this plan can perturb a run at all.

        An all-zero plan is indistinguishable from no plan — simulators
        take the unperturbed fast path, so a zero-fault run is
        byte-identical to a fault-free one.
        """
        return any(getattr(self, name) > 0.0 for name in _RATE_FIELDS) \
            or self.link_slowdown != 1.0

    @property
    def link_slowdown(self) -> float:
        """Flit serialization-time multiplier from degraded link
        operation (>= 1)."""
        return 1.0 / (self.link_width_fraction
                      * self.link_speed_fraction)

    def scaled(self, factor: float) -> "FaultPlan":
        """A plan with every *rate* multiplied by ``factor``.

        Durations, the degraded-link fractions, and the seed are kept;
        rates cap just below 1 so any scale factor stays valid.  The
        severity axis of the ``degraded-cxl`` experiment.
        """
        if factor < 0.0:
            raise FaultError(f"scale factor must be non-negative: {factor}")
        return replace(self, **{
            name: min(getattr(self, name) * factor, 0.999)
            for name in _RATE_FIELDS})

    # -- serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-compatible form (the result-cache key material)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        _SPEC.check_fields(data)
        return cls(**data)

    @classmethod
    def parse(cls, spec: str) -> "FaultPlan":
        """Build a plan from a CLI spec like ``crc=0.01,poison=0.002``.

        Keys: ``crc poison timeout stall`` (rates), ``stall-ns
        timeout-ns backoff-ns`` (durations), ``retries``, ``width
        speed`` (degraded-link fractions), ``seed``.  A key given
        twice is refused.
        """
        return cls(**_SPEC.parse(spec))


ZERO_FAULTS = FaultPlan()
"""The inactive plan: injects nothing, perturbs nothing."""
