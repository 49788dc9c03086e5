"""Per-request span recording with critical-path tail attribution.

The paper's core move is *decomposing* an access — how much is CPU
stall, link transfer, controller queueing, media — rather than quoting
one end-to-end number.  This module brings that decomposition to the
DES: every simulated request can emit an ordered list of **segments**
(``("client.wait", ns)``, ``("kv.cpu", ns)``, ``("cxl.link", ns)``,
...), recorded in *sim time* so output is a pure function of the run
configuration — byte-identical between serial and ``--jobs N`` runs.

Three artifacts are derived from the raw segments:

* **Attribution aggregates** — per-component totals over all requests
  and, separately, over the requests at or above the p99 end-to-end
  latency ("for requests above p99, 61% of time is shard queueing").
* **Tail exemplars** — the K slowest requests, kept with their full
  segment waterfalls.  Ties break on ``(total_ns, index)`` so the
  selection is seed- and schedule-independent.
* **Time windows** (optional) — per-window request count, throughput,
  p99 and component totals, so bursty/diurnal scenarios show *when*
  degradation happens, not just that it did.

:class:`SpanRecorder` is the recording half; :data:`NULL_SPANS` is the
shared disabled recorder (``enabled`` is ``False`` and ``record`` is a
no-op) that keeps spans-off hot paths — including the KV fast path —
free of any per-request work.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .metrics import interpolate_percentile

TAIL_PCT = 99.0
"""Conditioning percentile for the tail breakdown."""


class SpanError(ValueError):
    """Raised for malformed span configs or exports."""


# ---------------------------------------------------------------------------
# configuration


@dataclass(frozen=True)
class SpanConfig:
    """Span-layer knobs, folded into cache/checkpoint keys.

    ``exemplars`` is K, the number of slowest traces retained per sweep
    point; ``windows`` > 0 slices the run into that many equal sim-time
    windows for the time-series breakdown.
    """

    exemplars: int = 4
    windows: int = 0

    def __post_init__(self) -> None:
        if self.exemplars < 1:
            raise SpanError(f"exemplars must be >= 1, got {self.exemplars}")
        if self.windows < 0:
            raise SpanError(f"windows must be >= 0, got {self.windows}")

    def to_dict(self) -> dict:
        """Canonical form used in cache keys and saved payloads."""
        return {"exemplars": self.exemplars, "windows": self.windows}

    @classmethod
    def parse(cls, spec: str) -> "SpanConfig":
        """Parse a CLI spec like ``""``, ``"k=8"`` or ``"k=8,windows=6"``.

        Accepted keys: ``k``/``exemplars`` and ``windows``.
        """
        kwargs: dict[str, int] = {}
        for part in spec.split(","):
            part = part.strip()
            if not part:
                continue
            if "=" not in part:
                raise SpanError(f"bad span option {part!r} (expected key=value)")
            key, _, value = part.partition("=")
            key = key.strip().lower()
            if key in ("k", "exemplars"):
                key = "exemplars"
            elif key != "windows":
                raise SpanError(f"unknown span option {key!r} "
                                "(expected k/exemplars or windows)")
            try:
                kwargs[key] = int(value)
            except ValueError:
                raise SpanError(f"span option {key}={value!r} is not an "
                                "integer") from None
        return cls(**kwargs)


# ---------------------------------------------------------------------------
# recording


class NullSpanRecorder:
    """Disabled recorder: drops everything, records nothing."""

    enabled = False
    config: SpanConfig | None = None

    def record(self, index: int, start_ns: float,
               segments: Sequence[tuple[str, float]], *,
               kind: str = "request") -> None:
        pass

    def record_batch(self, index, start_ns, kinds, columns) -> None:
        pass

    def export(self) -> dict | None:
        return None


NULL_SPANS = NullSpanRecorder()
"""Shared disabled recorder — the default on every :class:`Telemetry`."""


class SpanRecorder:
    """Collects request segment waterfalls and aggregates them.

    The store is columnar: per request its index, start, kind code and
    total; per nonzero segment its request row, component code and
    duration, kept in record order and, within a request, in waterfall
    order.  :meth:`record_batch` appends many requests from per-segment
    columns in one numpy pass; :meth:`record` appends one.  Durations
    are sim-time floats, so aggregation is deterministic regardless of
    worker count or wall-clock scheduling.

    Every float in the export is a left fold in record order (never a
    pairwise ``np.sum``), so it does not depend on how the requests
    were split into batches.
    """

    enabled = True

    def __init__(self, config: SpanConfig | None = None) -> None:
        self.config = config if config is not None else SpanConfig()
        self._components: dict[str, int] = {}   # name -> code
        self._kinds: dict[str, int] = {}
        # One entry per batch: (index, start, kind, total,
        # segment row, segment component, segment duration).
        self._chunks: list[tuple[np.ndarray, ...]] = []

    def record(self, index: int, start_ns: float,
               segments: Sequence[tuple[str, float]], *,
               kind: str = "request") -> None:
        """Record one request's ordered ``(component, ns)`` segments."""
        self.record_batch((index,), (start_ns,), kind,
                          [(name, (dur,)) for name, dur in segments])

    def record_batch(self, index, start_ns, kinds,
                     columns: Sequence[tuple[str, object]]) -> None:
        """Record ``len(index)`` requests, in order, from columns.

        ``kinds`` is one kind for every request or one per request.
        ``columns`` holds ``(component, durations)`` pairs in waterfall
        order, with one duration per request.  Zero durations are
        dropped, as in :meth:`record`, so a request that lacks a
        segment pads its column with ``0.0``, and segments whose
        component varies by request go in one column per component.
        A non-finite duration or start raises :class:`SpanError` before
        anything is stored.
        """
        index = np.asarray(index, dtype=np.int64)
        start = np.asarray(start_ns, dtype=np.float64)
        count = len(index)
        if start.shape != (count,):
            raise SpanError(f"{start.size} starts for {count} requests")
        durs = np.zeros((len(columns), count))
        for col, (_, values) in enumerate(columns):
            durs[col] = values
        bad = ~np.isfinite(durs)
        if bad.any():
            row, col = np.argwhere(bad.T)[0].tolist()
            raise SpanError(f"non-finite duration {float(durs[col, row])} "
                            f"for component {columns[col][0]!r} of request "
                            f"{index[row]}")
        bad = ~np.isfinite(start)
        if bad.any():
            row = int(np.flatnonzero(bad)[0])
            raise SpanError(f"non-finite start {float(start[row])} of "
                            f"request {index[row]}")
        if not count:
            return
        # A request's total is the left fold of its segments in order;
        # an exact 0.0 for a dropped segment leaves the fold unchanged.
        total = np.zeros(count)
        for values in durs:
            total += values
        codes = _encode(self._components, [name for name, _ in columns])
        # Row-major over (request, column): record, then waterfall order.
        rows, cols = np.nonzero(durs.T)
        kind = _encode(self._kinds, (kinds,) * count
                       if isinstance(kinds, str) else kinds)
        self._chunks.append((index, start, kind, total, rows.astype(np.int32),
                             codes[cols], durs[cols, rows]))

    def _columns(self) -> tuple[np.ndarray, ...]:
        """The store as one chunk (compacted in place)."""
        if len(self._chunks) > 1:
            offset = 0
            for chunk in self._chunks:
                chunk[4][:] += offset       # batch-local -> global rows
                offset += len(chunk[0])
            self._chunks = [tuple(np.concatenate(parts)
                                  for parts in zip(*self._chunks))]
        return self._chunks[0]

    # -- export -------------------------------------------------------------

    def export(self) -> dict | None:
        """The aggregate payload for this recorder, or ``None`` if empty."""
        return self._aggregate() if self._chunks else None

    def _aggregate(self) -> dict:
        columns = self._columns()
        total, seg_row, seg_code, seg_dur = columns[3:]
        names = list(self._components)
        ordered = np.sort(total)
        threshold = interpolate_percentile(ordered.tolist(), TAIL_PCT)
        tail = total >= threshold
        tail_segs = tail[seg_row]
        agg = {
            "requests": len(total),
            "total_ns": _fold(ordered),
            "components": _component_folds(seg_code, seg_dur, names),
            "tail": {
                "threshold_ns": threshold,
                "requests": int(np.count_nonzero(tail)),
                "total_ns": _fold(total[tail]),
                "components": _component_folds(
                    seg_code[tail_segs], seg_dur[tail_segs], names),
            },
            "exemplars": self._exemplars(columns, names),
        }
        if self.config.windows > 0:
            agg["windows"] = self._windows(columns, names)
        return agg

    def _exemplars(self, columns: tuple[np.ndarray, ...],
                   names: list[str]) -> list[dict]:
        index, start, kind, total, seg_row, seg_code, seg_dur = columns
        kinds = list(self._kinds)
        # Slowest first; ties break on the deterministic request index,
        # never on insertion order, so the pick is schedule-independent.
        keep = np.lexsort((index, -total))[: self.config.exemplars]
        bounds = np.searchsorted(seg_row, np.stack([keep, keep + 1]))
        exemplars = []
        for row, lo, hi in zip(keep.tolist(), *bounds.tolist()):
            exemplars.append({
                "index": int(index[row]),
                "kind": kinds[kind[row]],
                "start_ns": float(start[row]),
                "total_ns": float(total[row]),
                "segments": [[names[code], dur] for code, dur in zip(
                    seg_code[lo:hi].tolist(), seg_dur[lo:hi].tolist())],
            })
        return exemplars

    def _windows(self, columns: tuple[np.ndarray, ...],
                 names: list[str]) -> list[dict]:
        # Lazy import: repro.sim pulls repro.telemetry at package init,
        # and this module *is* part of that init.
        from ..sim.stats import window_slot, window_width

        _, start, _, total, seg_row, seg_code, seg_dur = columns
        count = self.config.windows
        latest = float((start + total).max())
        width = window_width(latest if latest > 0.0 else 0.0, count)
        buckets: list[list[int]] = [[] for _ in range(count)]
        for row, start_ns in enumerate(start.tolist()):
            buckets[window_slot(start_ns, width, count)].append(row)
        slot_of = np.empty(len(total), dtype=np.int64)
        for slot, bucket in enumerate(buckets):
            slot_of[bucket] = slot
        seg_slot = slot_of[seg_row]
        windows = []
        for slot, bucket in enumerate(buckets):
            start_ns = slot * width
            window = {
                "start_ns": start_ns,
                "end_ns": start_ns + width,
                "requests": len(bucket),
            }
            if bucket:
                window["p99_ns"] = interpolate_percentile(
                    np.sort(total[bucket]).tolist(), TAIL_PCT)
                window["throughput_rps"] = len(bucket) / (
                    (start_ns + width - start_ns) / 1e9)
                here = seg_slot == slot
                window["components"] = _component_folds(
                    seg_code[here], seg_dur[here], names)
            windows.append(window)
        return windows


def _encode(table: dict[str, int], names: Sequence[str]) -> np.ndarray:
    """The codes of ``names`` in ``table``, adding any new name."""
    return np.array([table.setdefault(name, len(table)) for name in names],
                    dtype=np.int32)


def _fold(values: np.ndarray) -> float:
    """The left fold ``v0 + v1 + ...`` (not numpy's pairwise sum).

    Stored durations are nonzero and totals start from ``+0.0``, so no
    value here is ``-0.0`` and the fold equals ``0.0 + v0 + v1 + ...``.
    """
    return float(np.add.accumulate(values)[-1]) if len(values) else 0.0


def _component_folds(codes: np.ndarray, durs: np.ndarray,
                     names: list[str]) -> dict:
    """Per-component count and left-folded total, keyed by sorted name."""
    sums = {}
    for code in np.flatnonzero(np.bincount(codes)).tolist():
        mine = durs[codes == code]
        sums[names[code]] = {"count": len(mine), "total_ns": _fold(mine)}
    return {name: sums[name] for name in sorted(sums)}


def _float_sum(values: Iterable[float]) -> float:
    total = 0.0
    for value in values:
        total += value
    return total


# ---------------------------------------------------------------------------
# aggregate combination (parent-side merge across sweep units / workers)


def combine_aggregates(aggregates: Sequence[Mapping]) -> dict:
    """Merge per-unit aggregates into one.

    Component totals add; the tail section sums each unit's own
    p99-conditioned slice (each request is conditioned against *its*
    sweep point's distribution, which is the attribution question the
    report asks).  Exemplars are re-ranked globally and trimmed to the
    largest K present.  Per-unit time windows are not combinable across
    different timelines and are dropped here.
    """
    if not aggregates:
        raise SpanError("cannot combine zero span aggregates")
    if len(aggregates) == 1:
        return dict(aggregates[0])
    combined = {
        "requests": sum(a["requests"] for a in aggregates),
        "total_ns": _float_sum(a["total_ns"] for a in aggregates),
        "components": _merge_components(a["components"] for a in aggregates),
        "tail": {
            "requests": sum(a["tail"]["requests"] for a in aggregates),
            "total_ns": _float_sum(a["tail"]["total_ns"] for a in aggregates),
            "components": _merge_components(
                a["tail"]["components"] for a in aggregates),
        },
    }
    keep = max(len(a.get("exemplars", ())) for a in aggregates)
    ranked = sorted(
        (ex for a in aggregates for ex in a.get("exemplars", ())),
        key=lambda ex: (-ex["total_ns"], ex["index"]))
    combined["exemplars"] = ranked[:keep]
    return combined


def _merge_components(component_maps: Iterable[Mapping]) -> dict:
    merged: dict[str, dict] = {}
    for components in component_maps:
        for name, slot in components.items():
            out = merged.get(name)
            if out is None:
                merged[name] = {"count": slot["count"],
                                "total_ns": slot["total_ns"]}
            else:
                out["count"] += slot["count"]
                out["total_ns"] += slot["total_ns"]
    return {name: merged[name] for name in sorted(merged)}


# ---------------------------------------------------------------------------
# rendering


BAR_WIDTH = 24


def _bar(share: float) -> str:
    cells = int(round(share * BAR_WIDTH))
    cells = max(0, min(BAR_WIDTH, cells))
    return "#" * cells + "." * (BAR_WIDTH - cells)


def breakdown_rows(aggregate: Mapping) -> list[tuple[str, float, float]]:
    """``(component, mean_share, tail_share)`` rows, largest mean first."""
    total = aggregate["total_ns"] or 1.0
    tail = aggregate.get("tail", {})
    tail_total = tail.get("total_ns") or 1.0
    tail_components = tail.get("components", {})
    rows = []
    for name, slot in aggregate["components"].items():
        tail_slot = tail_components.get(name)
        rows.append((name,
                     slot["total_ns"] / total,
                     (tail_slot["total_ns"] / tail_total) if tail_slot
                     else 0.0))
    rows.sort(key=lambda row: (-row[1], row[0]))
    return rows


def render_attribution(aggregate: Mapping, *, title: str = "attribution"
                       ) -> str:
    """A fixed-width critical-path table (mean vs p99-conditioned)."""
    lines = [f"{title}: {aggregate['requests']} requests, "
             f"tail >= p{TAIL_PCT:g} = {aggregate['tail']['requests']} requests"]
    lines.append(f"  {'component':<14} {'mean':>6}  {'p99+':>6}  share")
    for name, mean_share, tail_share in breakdown_rows(aggregate):
        lines.append(f"  {name:<14} {mean_share:>5.1%}  {tail_share:>5.1%}  "
                     f"{_bar(tail_share)}")
    return "\n".join(lines)


def render_waterfall(exemplar: Mapping) -> str:
    """One exemplar's segment waterfall as indented proportional bars."""
    total = exemplar["total_ns"] or 1.0
    lines = [f"request #{exemplar['index']} ({exemplar['kind']}): "
             f"{exemplar['total_ns']:.1f} ns"]
    for name, dur in exemplar["segments"]:
        share = dur / total
        lines.append(f"  {name:<14} {dur:>12.1f} ns  {share:>5.1%}  "
                     f"{_bar(share)}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Perfetto flow-event export


def perfetto_spans_trace(points: Mapping[str, Mapping], *,
                         process_name: str = "repro-spans") -> dict:
    """Exemplar waterfalls as a Chrome/Perfetto flow-event trace.

    Each component gets its own track (thread); each exemplar is a chain
    of complete (``X``) slices — laid out back-to-back in sim time —
    linked with ``s``/``t``/``f`` flow events so Perfetto draws the
    request's path across tracks.
    """
    events: list[dict] = []
    tracks: dict[str, int] = {}
    pid = 1
    events.append({"name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                   "ts": 0, "args": {"name": process_name}})

    def track(name: str) -> int:
        tid = tracks.get(name)
        if tid is None:
            tid = len(tracks) + 1
            tracks[name] = tid
            events.append({"name": "thread_name", "ph": "M", "pid": pid,
                           "tid": tid, "ts": 0, "args": {"name": name}})
        return tid

    flow_id = 0
    for point in sorted(points):
        for exemplar in points[point].get("exemplars", ()):
            flow_id += 1
            ts = exemplar["start_ns"] / 1000.0  # trace ts is microseconds
            segments = exemplar["segments"]
            last = len(segments) - 1
            for pos, (name, dur) in enumerate(segments):
                tid = track(name)
                dur_us = dur / 1000.0
                args = {"point": point, "request": exemplar["index"],
                        "kind": exemplar["kind"], "dur_ns": dur}
                events.append({"name": name, "ph": "X", "pid": pid,
                               "tid": tid, "ts": ts, "dur": dur_us,
                               "cat": "span", "args": args})
                flow_ph = "s" if pos == 0 else ("f" if pos == last else "t")
                flow = {"name": f"request-{exemplar['index']}",
                        "ph": flow_ph, "pid": pid, "tid": tid,
                        "ts": ts, "cat": "span", "id": flow_id}
                if flow_ph == "f":
                    flow["bp"] = "e"
                events.append(flow)
                ts += dur_us
    return {"traceEvents": events, "displayTimeUnit": "ns"}


# ---------------------------------------------------------------------------
# digests (run-ledger auditability)


def spans_digest(payload: Mapping) -> dict:
    """``{"exemplars": N, "digest": 12-hex}`` summary for the run ledger.

    The digest hashes the canonical JSON form of the payload, so two
    runs with identical span output share a digest and any breakdown
    drift changes it.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    count = 0
    stack = [payload]
    while stack:
        node = stack.pop()
        if isinstance(node, Mapping):
            exemplars = node.get("exemplars")
            if isinstance(exemplars, (list, tuple)):
                count += len(exemplars)
            stack.extend(v for v in node.values() if isinstance(v, Mapping))
    return {"exemplars": count,
            "digest": hashlib.sha256(blob.encode()).hexdigest()[:12]}


# ---------------------------------------------------------------------------
# module CLI (golden-waterfall extraction)


def main(argv: Sequence[str] | None = None) -> int:
    """Render every tail-exemplar waterfall from a ``.spans.json``.

    One ``[sweep point]`` header + waterfall block per exemplar, sweep
    points in sorted order — the byte-stable form CI diffs against the
    committed golden (``results/spans_golden_waterfalls.txt``).  After
    an intentional recalibration, regenerate with::

        repro-experiments --only figC --spans --no-cache --save out/
        python -m repro.telemetry.spans out/cluster-pooling.spans.json \\
            > results/spans_golden_waterfalls.txt
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.telemetry.spans",
        description="render exemplar waterfalls from a .spans.json")
    parser.add_argument("payload", help="path to a <id>.spans.json")
    args = parser.parse_args(argv)
    with open(args.payload) as handle:
        payload = json.load(handle)
    blocks = []
    for point in sorted(payload["points"]):
        for exemplar in payload["points"][point]["exemplars"]:
            blocks.append(f"[{point}]\n{render_waterfall(exemplar)}")
    print("\n\n".join(blocks))
    return 0


if __name__ == "__main__":          # pragma: no cover
    raise SystemExit(main())
