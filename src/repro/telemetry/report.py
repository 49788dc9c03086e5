"""Rendering and export of telemetry: metrics snapshots + trace files.

The experiment/bench CLIs call into this module so every figure run can
drop a Perfetto-loadable timeline (``--trace out.json``) and a
machine-readable metrics snapshot next to its text tables.
"""

from __future__ import annotations

import json
from pathlib import Path

from ..canonical import write_json
from ..errors import TelemetryError
from .metrics import Registry
from .tracer import Tracer

REQUIRED_EVENT_KEYS = ("name", "ph", "ts", "pid", "tid")
"""Every Chrome trace event must carry these keys."""


def render_metrics(registry: Registry) -> str:
    """A human-readable metrics table, one dotted name per row."""
    snapshot = registry.snapshot()
    if not snapshot:
        return "(no metrics recorded)"
    width = max(len(name) for name in snapshot)
    lines = ["== telemetry metrics =="]
    for name, snap in snapshot.items():
        kind = snap["type"]
        if kind == "histogram":
            if snap["count"]:
                detail = (f"count={snap['count']} "
                          f"mean={snap['mean']:.1f} "
                          f"p50={snap['p50']:.1f} p99={snap['p99']:.1f} "
                          f"max={snap['max']:.1f}")
            else:
                detail = "count=0"
        else:
            detail = f"{snap['value']:g}"
        lines.append(f"{name:<{width}}  {kind:<9}  {detail}")
    return "\n".join(lines)


def write_metrics(registry: Registry, path) -> Path:
    """Write the snapshot as JSON; returns the path written."""
    return write_json(path, registry.snapshot())


def write_trace(tracer: Tracer, path) -> Path:
    """Write (and re-validate) the Chrome trace JSON to ``path``."""
    target = Path(path)
    tracer.write(target)
    validate_chrome_trace(json.loads(target.read_text()))
    return target


def validate_chrome_trace(obj) -> dict:
    """Check an object parses as a loadable Chrome/Perfetto trace.

    Raises :class:`TelemetryError` on schema violations; returns the
    object so callers can chain.  Used by the tests and the CI smoke
    run ("failing on crash or invalid trace JSON").
    """
    if not isinstance(obj, dict) or "traceEvents" not in obj:
        raise TelemetryError("trace must be an object with 'traceEvents'")
    events = obj["traceEvents"]
    if not isinstance(events, list):
        raise TelemetryError("'traceEvents' must be a list")
    for index, event in enumerate(events):
        if not isinstance(event, dict):
            raise TelemetryError(f"event #{index} is not an object")
        missing = [key for key in REQUIRED_EVENT_KEYS if key not in event]
        if missing:
            raise TelemetryError(
                f"event #{index} ({event.get('name')!r}) missing "
                f"keys {missing}")
        if event["ph"] == "X" and "dur" not in event:
            raise TelemetryError(
                f"complete event #{index} ({event['name']!r}) has no dur")
        if not isinstance(event["ts"], (int, float)):
            raise TelemetryError(f"event #{index} ts is not numeric")
    return obj


def trace_track_names(obj: dict) -> set[str]:
    """Component track names present in a validated Chrome trace."""
    return {event["args"]["name"] for event in obj["traceEvents"]
            if event.get("ph") == "M"
            and event.get("name") == "thread_name"}
