"""Unified observability for the simulation stack.

Two halves, bundled by :class:`Telemetry`:

* **Metrics** (:mod:`repro.telemetry.metrics`) — a :class:`Registry` of
  hierarchical named :class:`Counter`/:class:`Gauge`/:class:`Histogram`
  aggregates, snapshot-able as JSON.
* **Tracing** (:mod:`repro.telemetry.tracer`) — structured timeline
  events on one track per simulated component, exported as Chrome
  ``chrome://tracing`` / Perfetto JSON.

Every instrumented component takes an optional ``telemetry=`` argument
defaulting to :data:`NULL_TELEMETRY`, whose tracer and registry drop
everything — disabled-mode runs emit zero events and hold no samples.

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
    Gauge,
    Histogram,
    NullRegistry,
    Registry,
    default_latency_buckets_ns,
    interpolate_percentile,
)
from .spans import NULL_SPANS, NullSpanRecorder, SpanConfig, SpanRecorder
from .tracer import NULL_TRACER, NullTracer, TraceEvent, Tracer


class Telemetry:
    """One run's observability session: a registry, a tracer, and an
    optional per-request span recorder."""

    def __init__(self, *, registry: Registry | None = None,
                 tracer: Tracer | None = None,
                 spans: SpanRecorder | NullSpanRecorder | None = None) -> None:
        self.registry = registry if registry is not None else Registry()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.spans = spans if spans is not None else NULL_SPANS

    @property
    def enabled(self) -> bool:
        """True when the tracer records events."""
        return self.tracer.enabled

    @classmethod
    def on(cls, *, process_name: str = "repro-sim") -> "Telemetry":
        """A fully-recording session."""
        return cls(registry=Registry(),
                   tracer=Tracer(process_name=process_name))

    @classmethod
    def metrics_only(cls) -> "Telemetry":
        """Counters/gauges/histograms without timeline events.

        The fault-accounting tests use this: ``faults.*`` counters are
        recorded while the tracer (whose event list grows with run
        length) stays off.
        """
        return cls(registry=Registry(), tracer=NULL_TRACER)


NULL_TELEMETRY = Telemetry(registry=NullRegistry(), tracer=NULL_TRACER)
"""Shared disabled session used as the default by every component."""


__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "NullRegistry",
    "NullSpanRecorder",
    "NullTracer",
    "NULL_SPANS",
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
