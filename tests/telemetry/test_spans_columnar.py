"""The columnar SpanRecorder against the per-request tuple recorder.

``_TupleRecorder`` is the recorder as it was before the store went
columnar: one ``(total, index, kind, start, segments)`` tuple per
request and Python folds over them.  Both recorders get the same random
requests — the columnar one through interleaved ``record`` and
``record_batch`` calls — and their exports must serialize to the same
bytes, so every count, fold order, tie-break and window survives the
change of layout.
"""

from __future__ import annotations

import json

from hypothesis import given, settings, strategies as st

from repro.sim.stats import RateMeter, window_slot, window_width
from repro.telemetry import SpanConfig, SpanRecorder
from repro.telemetry.metrics import interpolate_percentile
from repro.telemetry.spans import TAIL_PCT


def _sums(segment_lists):
    sums = {}
    for segments in segment_lists:
        for name, dur in segments:
            slot = sums.get(name)
            if slot is None:
                sums[name] = {"count": 1, "total_ns": dur}
            else:
                slot["count"] += 1
                slot["total_ns"] += dur
    return {name: sums[name] for name in sorted(sums)}


def _fold(values):
    total = 0.0
    for value in values:
        total += value
    return total


class _TupleRecorder:
    def __init__(self, config):
        self.config, self.requests = config, []

    def record(self, index, start_ns, segments, *, kind="request"):
        kept = tuple((n, float(d)) for n, d in segments if d != 0.0)
        self.requests.append((_fold(d for _, d in kept), int(index), kind,
                              float(start_ns), kept))

    def export(self):
        reqs = self.requests
        totals = sorted(r[0] for r in reqs)
        threshold = interpolate_percentile(totals, TAIL_PCT)
        tail = [r for r in reqs if r[0] >= threshold]
        ranked = sorted(reqs, key=lambda r: (-r[0], r[1]))
        agg = {"requests": len(reqs), "total_ns": _fold(totals),
               "components": _sums(r[4] for r in reqs),
               "tail": {"threshold_ns": threshold, "requests": len(tail),
                        "total_ns": _fold(r[0] for r in tail),
                        "components": _sums(r[4] for r in tail)},
               "exemplars": [{"index": i, "kind": k, "start_ns": s,
                              "total_ns": t,
                              "segments": [[n, d] for n, d in segs]}
                             for t, i, k, s, segs in
                             ranked[:self.config.exemplars]]}
        count = self.config.windows
        if count:
            end = 0.0
            for r in reqs:
                end = max(end, r[3] + r[0])
            width = window_width(end, count)
            buckets = [[] for _ in range(count)]
            for r in reqs:
                buckets[window_slot(r[3], width, count)].append(r)
            agg["windows"] = []
            for slot, bucket in enumerate(buckets):
                window = {"start_ns": slot * width,
                          "end_ns": slot * width + width,
                          "requests": len(bucket)}
                if bucket:
                    meter = RateMeter(name="w", window_start_ns=slot * width)
                    meter.add(0.0, len(bucket))
                    window["p99_ns"] = interpolate_percentile(
                        sorted(r[0] for r in bucket), TAIL_PCT)
                    window["throughput_rps"] = meter.throughput(
                        slot * width + width)
                    window["components"] = _sums(r[4] for r in bucket)
                agg["windows"].append(window)
        return agg


# Few names and a few round durations, so components repeat within a
# request and totals tie across requests.
_durations = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.5, 100.0, 0.1, 0.2, 0.3]),
    st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))
_segments = st.lists(
    st.tuples(st.sampled_from(["a", "b", "cpu", "mem"]), _durations),
    max_size=6)
_requests = st.lists(
    st.tuples(st.integers(0, 40),
              st.one_of(st.sampled_from([0.0, 10.0, 500.0]),
                        st.floats(min_value=0.0, max_value=1e5)),
              st.sampled_from(["get", "put", "scan"]),
              _segments),
    min_size=1, max_size=30)


def _batch(recorder, requests, pad):
    """Record ``requests`` in one ``record_batch``.

    One column per (position, component) that occurs, in position
    order; a request without that segment pads it with ``pad``.
    """
    cells = {}
    for row, (*_, segments) in enumerate(requests):
        for pos, (name, dur) in enumerate(segments):
            cells.setdefault((pos, name), {})[row] = dur
    columns = [(name, [durs.get(row, pad) for row in range(len(requests))])
               for (_, name), durs in sorted(cells.items(),
                                             key=lambda item: item[0][0])]
    kinds = [kind for _, _, kind, _ in requests]
    if len(set(kinds)) == 1:
        kinds = kinds[0]
    recorder.record_batch([index for index, *_ in requests],
                          [start for _, start, *_ in requests], kinds,
                          columns)


@settings(max_examples=300, deadline=None)
@given(requests=_requests,
       cuts=st.lists(st.integers(1, 30), max_size=8),
       single=st.lists(st.booleans(), min_size=9, max_size=9),
       pad=st.sampled_from([0.0, -0.0]),
       exemplars=st.integers(1, 6),
       windows=st.sampled_from([0, 1, 3, 5]))
def test_columnar_export_matches_tuple_recorder(requests, cuts, single, pad,
                                                exemplars, windows):
    config = SpanConfig(exemplars=exemplars, windows=windows)
    reference = _TupleRecorder(config)
    for index, start, kind, segments in requests:
        reference.record(index, start, segments, kind=kind)

    recorder = SpanRecorder(config)
    pos = 0
    for step, cut in enumerate(cuts + [len(requests)]):
        group = requests[pos:pos + cut]
        if group and single[step]:
            for index, start, kind, segments in group:
                recorder.record(index, start, segments, kind=kind)
        elif group:
            _batch(recorder, group, pad)
        pos += cut
    assert json.dumps(recorder.export()) == json.dumps(reference.export())
