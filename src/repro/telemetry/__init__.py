"""Unified observability for the simulation stack.

Two halves, bundled by :class:`Telemetry`:

* **Metrics** (:mod:`repro.telemetry.metrics`) — a :class:`Registry` of
  hierarchical named :class:`Counter`/:class:`Histogram` aggregates,
  snapshot-able as JSON.
* **Tracing** (:mod:`repro.telemetry.tracer`) — structured timeline
  events on one track per simulated component, exported as Chrome
  ``chrome://tracing`` / Perfetto JSON.

The simulators ``memo`` instruments
(:class:`~repro.cxl.e2e_sim.CxlEndToEndSim`,
:class:`~repro.cxl.e2e_sim.CxlWriteEndToEndSim` and
:class:`~repro.cache.hierarchy.CacheHierarchy`) take an optional
``telemetry=`` argument defaulting to :data:`NULL_TELEMETRY`, whose
tracer and registry drop everything — disabled-mode runs emit zero
events and hold no samples.  Per-request spans
(:mod:`repro.telemetry.spans`) are recorded by a
:class:`SpanRecorder` handed to the simulator directly.

Quickstart::

    from repro.telemetry import Telemetry
    from repro.cxl.e2e_sim import CxlEndToEndSim

    telemetry = Telemetry.on()
    CxlEndToEndSim(telemetry=telemetry).run(threads=8)
    telemetry.tracer.write("trace.json")        # open in ui.perfetto.dev
    print(telemetry.registry.snapshot())
"""

from __future__ import annotations

from .metrics import (
    Counter,
    Histogram,
    NullRegistry,
    Registry,
    default_latency_buckets_ns,
    interpolate_percentile,
)
from .spans import SpanConfig, SpanRecorder
from .tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer


class Telemetry:
    """One run's observability session: a registry and a tracer."""

    def __init__(self, *, registry: Registry | None = None,
                 tracer: Tracer | None = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    @property
    def enabled(self) -> bool:
        """True when the tracer records events."""
        return self.tracer.enabled

    @classmethod
    def on(cls, *, process_name: str = "repro-sim") -> "Telemetry":
        """A fully-recording session."""
        return cls(registry=Registry(),
                   tracer=Tracer(process_name=process_name))


NULL_TELEMETRY = Telemetry(registry=NullRegistry(), tracer=NULL_TRACER)
"""Shared disabled session used as the default by every component."""


__all__ = [
    "Counter",
    "Histogram",
    "NullRegistry",
    "NullTracer",
    "NULL_TELEMETRY",
    "NULL_TRACER",
    "Registry",
    "SpanConfig",
    "SpanRecorder",
    "Telemetry",
    "TraceEvent",
    "Tracer",
    "default_latency_buckets_ns",
    "interpolate_percentile",
]
