"""Structured event tracing with Chrome ``chrome://tracing`` export.

Events carry *simulated* timestamps (ns), never wall-clock time, so two
identically-seeded runs emit byte-identical event sequences — the
property the determinism tests pin down.

Each *track* is one simulated component (``core``, ``cxl.port``,
``cxl.device.wbuf``, ``dram.channel``) and maps
to one named thread row in the Chrome / Perfetto timeline view.  Three
event shapes cover the simulator's needs:

* ``complete`` — a span with explicit start and duration (Chrome phase
  ``X``); natural in a DES where both ends are known when the span is
  recorded.
* ``instant`` — a point event (phase ``i``).
* ``count`` — a sampled value plotted as a counter track (phase ``C``),
  used for write-buffer occupancy.

:class:`NullTracer` is the zero-overhead disabled mode: every recording
method is a bare ``pass`` and :attr:`Tracer.enabled` is ``False`` so
hot loops can skip even argument construction.
"""

from __future__ import annotations

import json

from ..errors import TelemetryError

TRACE_PID = 1
"""All tracks live in one synthetic process row."""


class TraceEvent:
    """One recorded event, pre-normalized to Chrome trace semantics."""

    __slots__ = ("track", "name", "phase", "ts_ns", "dur_ns", "args")

    def __init__(self, track: str, name: str, phase: str, ts_ns: float,
                 dur_ns: float = 0.0, args: dict | None = None) -> None:
        self.track = track
        self.name = name
        self.phase = phase
        self.ts_ns = ts_ns
        self.dur_ns = dur_ns
        self.args = args or {}

    def key(self) -> tuple:
        """A comparable identity used by the determinism tests."""
        return (self.track, self.name, self.phase, self.ts_ns,
                self.dur_ns, tuple(sorted(self.args.items())))


class Tracer:
    """Collects :class:`TraceEvent`s and serializes them for Perfetto."""

    enabled = True

    def __init__(self, *, process_name: str = "repro-sim") -> None:
        self.process_name = process_name
        self._events: list[TraceEvent] = []
        self._tracks: dict[str, int] = {}

    # -- recording ---------------------------------------------------------

    def track_id(self, track: str) -> int:
        """The stable tid for a component track (created on first use)."""
        if track not in self._tracks:
            if not track:
                raise TelemetryError("track name must be non-empty")
            self._tracks[track] = len(self._tracks) + 1
        return self._tracks[track]

    def complete(self, track: str, name: str, start_ns: float,
                 dur_ns: float, **args) -> None:
        """A span [start_ns, start_ns + dur_ns) on ``track``."""
        if dur_ns < 0:
            raise TelemetryError(
                f"span {name!r} on {track!r} has negative duration "
                f"{dur_ns}")
        self.track_id(track)
        self._events.append(
            TraceEvent(track, name, "X", start_ns, dur_ns, args))

    def instant(self, track: str, name: str, ts_ns: float, **args) -> None:
        self.track_id(track)
        self._events.append(TraceEvent(track, name, "i", ts_ns, 0.0, args))

    def count(self, track: str, name: str, ts_ns: float,
              value: float) -> None:
        """A counter sample, rendered as a filled area track."""
        self.track_id(track)
        self._events.append(
            TraceEvent(track, name, "C", ts_ns, 0.0, {"value": value}))

    # -- inspection --------------------------------------------------------

    @property
    def events(self) -> list[TraceEvent]:
        return list(self._events)

    @property
    def tracks(self) -> list[str]:
        """Track names in creation order."""
        return list(self._tracks)

    # -- export ------------------------------------------------------------

    def chrome_trace(self) -> dict:
        """The full Chrome JSON object (``traceEvents`` array format).

        Timestamps convert from simulated ns to the microseconds the
        format specifies.  Metadata events name the process and one
        thread per track so Perfetto shows component names, not bare
        tids.
        """
        events: list[dict] = [{
            "name": "process_name", "ph": "M", "pid": TRACE_PID, "tid": 0,
            "ts": 0, "args": {"name": self.process_name},
        }]
        for track, tid in self._tracks.items():
            events.append({"name": "thread_name", "ph": "M",
                           "pid": TRACE_PID, "tid": tid, "ts": 0,
                           "args": {"name": track}})
            events.append({"name": "thread_sort_index", "ph": "M",
                           "pid": TRACE_PID, "tid": tid, "ts": 0,
                           "args": {"sort_index": tid}})
        for event in self._events:
            payload: dict = {
                "name": event.name,
                "ph": event.phase,
                "ts": event.ts_ns / 1000.0,
                "pid": TRACE_PID,
                "tid": self._tracks[event.track],
                "cat": event.track,
            }
            if event.phase == "X":
                payload["dur"] = event.dur_ns / 1000.0
            if event.phase == "i":
                payload["s"] = "t"          # thread-scoped instant
            if event.args:
                payload["args"] = dict(event.args)
            events.append(payload)
        return {"traceEvents": events, "displayTimeUnit": "ns"}

    def to_json(self, *, indent: int | None = None) -> str:
        return json.dumps(self.chrome_trace(), indent=indent,
                          sort_keys=False)

    def write(self, path) -> None:
        """Write the Chrome trace JSON to ``path`` (str or Path),
        creating parent directories as needed."""
        from pathlib import Path

        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(self.to_json() + "\n")


class NullTracer(Tracer):
    """Disabled mode: records nothing, exports an empty (valid) trace."""

    enabled = False

    def complete(self, track: str, name: str, start_ns: float,
                 dur_ns: float, **args) -> None:
        pass

    def instant(self, track: str, name: str, ts_ns: float, **args) -> None:
        pass

    def count(self, track: str, name: str, ts_ns: float,
              value: float) -> None:
        pass


NULL_TRACER = NullTracer()
"""Shared no-op tracer; safe to use as a default everywhere."""
