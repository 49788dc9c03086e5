"""Hierarchical named metrics: counters and histograms.

The registry is the *aggregate* half of the telemetry subsystem (the
event half lives in :mod:`repro.telemetry.tracer`).  Components create
metrics lazily by dotted name — ``cxl.e2e.read.latency_ns`` — so a
snapshot of one run groups naturally by simulated component.

Naming convention (see docs/TELEMETRY.md): lowercase dotted paths,
``<layer>.<component>.<quantity>[_<unit>]``.  Quantities carrying a
unit spell it in the last segment (``_ns``, ``_bytes``, ``_pages``).

Percentiles are exact (linear interpolation, numpy-compatible) and come
from a sorted cache that is invalidated on :meth:`Histogram.record` —
repeated ``p50()``/``p99()`` calls between records sort at most once,
which is what lets :class:`repro.sim.stats.LatencyRecorder` delegate
here without regressing the hot DES loops.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from typing import Sequence

from ..errors import TelemetryError


def interpolate_percentile(ordered: list[float], pct: float) -> float:
    """Linear-interpolated percentile of an already-sorted sample list.

    Matches ``numpy.percentile(..., method='linear')``.  The single
    shared implementation behind both :func:`repro.sim.stats.percentile`
    and :meth:`Histogram.percentile`, so the two stat paths cannot
    drift.
    """
    if not ordered:
        raise ValueError("percentile of an empty sample set")
    if not 0.0 <= pct <= 100.0:
        raise ValueError(f"pct must be in [0, 100], got {pct}")
    if len(ordered) == 1:
        return ordered[0]
    rank = (pct / 100.0) * (len(ordered) - 1)
    low = math.floor(rank)
    high = math.ceil(rank)
    if low == high:
        return ordered[low]
    frac = rank - low
    return ordered[low] * (1.0 - frac) + ordered[high] * frac


def default_latency_buckets_ns() -> tuple[float, ...]:
    """Geometric 10 ns .. ~655 µs bucket bounds (everything above spills
    into the implicit overflow bucket)."""
    return tuple(10.0 * 2.0 ** i for i in range(17))


class Counter:
    """A monotonically increasing count (events, bytes, pages).

    Integer increments stay integers (Python's arbitrary precision),
    so counts beyond 2**53 — byte totals summed across many worker
    exports — never lose low bits to float rounding.  A float
    increment switches the counter to float accumulation, as before.
    """

    __slots__ = ("name", "_value")

    def __init__(self, name: str) -> None:
        self.name = name
        self._value: int | float = 0

    @property
    def value(self) -> int | float:
        return self._value

    def inc(self, amount: int | float = 1) -> None:
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name!r} cannot decrease (inc {amount})")
        self._value += amount

    def snapshot(self) -> dict:
        return {"type": "counter", "value": self._value}


class Histogram:
    """Fixed-bucket distribution with exact cached percentiles.

    Buckets answer "what does the distribution look like" cheaply in a
    snapshot; the raw samples answer p50/p99 exactly, through a sorted
    cache invalidated on :meth:`record` (the satellite-task replacement
    for ``sim.stats``'s former sort-per-call).
    """

    __slots__ = ("name", "buckets", "_counts", "_overflow", "_samples",
                 "_sorted", "_sum")

    def __init__(self, name: str,
                 buckets: tuple[float, ...] | None = None) -> None:
        bounds = tuple(buckets) if buckets is not None \
            else default_latency_buckets_ns()
        if not bounds:
            raise TelemetryError(
                f"histogram {name!r} needs at least one bucket bound")
        if any(nxt <= prev for prev, nxt in zip(bounds, bounds[1:])):
            raise TelemetryError(
                f"histogram {name!r} bucket bounds must strictly increase")
        self.name = name
        self.buckets = bounds
        self._counts = [0] * len(bounds)
        self._overflow = 0
        self._samples: list[float] = []
        self._sorted: list[float] | None = None
        self._sum = 0.0

    def record(self, value: float) -> None:
        """Add one observation; invalidates the percentile cache.

        NaN is refused: it would land in an arbitrary bucket and break
        the sort the percentiles rely on.
        """
        if value != value:
            raise TelemetryError(f"histogram {self.name!r} recorded NaN")
        self._samples.append(value)
        self._sorted = None
        self._sum += value
        # First bound >= value, i.e. the bucket with value <= bound.
        index = bisect_left(self.buckets, value)
        if index < len(self._counts):
            self._counts[index] += 1
        else:
            self._overflow += 1

    def extend(self, values: Sequence[float]) -> None:
        """:meth:`record` each value in order, in one call.

        The raw samples, the bucket counts and ``_sum`` end up exactly
        as after the :meth:`record` loop: the sum is sequential in
        record order (not the compensated ``sum()``), and each bucket
        is counted by bisecting the sorted batch.  That sort also
        seeds the percentile cache of a histogram that was empty.  NaN
        is refused before anything is added.
        """
        total = self._sum
        for value in values:
            if value != value:
                raise TelemetryError(
                    f"histogram {self.name!r} recorded NaN")
            total += value
        if not values:
            return
        ordered = sorted(values)
        below = 0
        for index, bound in enumerate(self.buckets):
            upto = bisect_right(ordered, bound)     # values <= bound
            self._counts[index] += upto - below
            below = upto
        self._overflow += len(ordered) - below
        self._sorted = None if self._samples else ordered
        self._samples.extend(values)
        self._sum = total

    def __len__(self) -> int:
        return len(self._samples)

    @property
    def count(self) -> int:
        return len(self._samples)

    @property
    def samples(self) -> list[float]:
        """A copy of the raw observations, in record order."""
        return list(self._samples)

    def _ordered(self) -> list[float]:
        if not self._samples:
            raise ValueError(f"{self.name}: no samples recorded")
        if self._sorted is None:
            self._sorted = sorted(self._samples)
        return self._sorted

    def mean(self) -> float:
        if not self._samples:
            raise ValueError(f"{self.name}: no samples recorded")
        return self._sum / len(self._samples)

    def percentile(self, pct: float) -> float:
        return interpolate_percentile(self._ordered(), pct)

    def p50(self) -> float:
        return self.percentile(50.0)

    def p99(self) -> float:
        return self.percentile(99.0)

    def min(self) -> float:
        return self._ordered()[0]

    def max(self) -> float:
        return self._ordered()[-1]

    def bucket_counts(self) -> list[tuple[float, int]]:
        """(upper_bound, count) pairs plus a final (inf, overflow)."""
        pairs = list(zip(self.buckets, self._counts))
        pairs.append((math.inf, self._overflow))
        return pairs

    def snapshot(self) -> dict:
        summary: dict = {"type": "histogram", "count": self.count}
        if self._samples:
            summary.update(mean=self.mean(), p50=self.p50(),
                           p99=self.p99(), min=self.min(), max=self.max())
        summary["buckets"] = [
            {"le": bound if math.isfinite(bound) else "inf",
             "count": count}
            for bound, count in self.bucket_counts() if count]
        return summary


class Registry:
    """Get-or-create store of named metrics, snapshot-able as a tree."""

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Histogram] = {}

    def _get(self, name: str, kind: type, factory):
        if not name or name.startswith(".") or name.endswith("."):
            raise TelemetryError(f"bad metric name {name!r}")
        existing = self._metrics.get(name)
        if existing is not None:
            if not isinstance(existing, kind):
                raise TelemetryError(
                    f"metric {name!r} already registered as "
                    f"{type(existing).__name__}, not {kind.__name__}")
            return existing
        metric = factory()
        self._metrics[name] = metric
        return metric

    def counter(self, name: str) -> Counter:
        return self._get(name, Counter, lambda: Counter(name))

    def histogram(self, name: str,
                  buckets: tuple[float, ...] | None = None) -> Histogram:
        return self._get(name, Histogram,
                         lambda: Histogram(name, buckets))

    def __len__(self) -> int:
        return len(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def names(self) -> list[str]:
        return sorted(self._metrics)

    def get(self, name: str) -> Counter | Histogram:
        if name not in self._metrics:
            raise TelemetryError(f"no metric named {name!r}; "
                                 f"registered: {self.names()}")
        return self._metrics[name]

    def snapshot(self) -> dict[str, dict]:
        """Flat ``{dotted-name: metric-snapshot}`` in sorted name order."""
        return {name: self._metrics[name].snapshot()
                for name in self.names()}

    def tree(self) -> dict:
        """The snapshot nested by dotted-name components."""
        root: dict = {}
        for name, snap in self.snapshot().items():
            node = root
            parts = name.split(".")
            for part in parts[:-1]:
                node = node.setdefault(part, {})
            node[parts[-1]] = snap
        return root


class _NullCounter:
    """Drops everything; the disabled-mode stand-in for :class:`Counter`."""

    __slots__ = ()
    name = "null"
    value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        pass

    def snapshot(self) -> dict:
        return {"type": "counter", "value": 0.0}


class _NullHistogram:
    """Drops samples so disabled runs hold no memory and do no sorting."""

    __slots__ = ()
    name = "null"
    count = 0
    samples: list[float] = []

    def record(self, value: float) -> None:
        pass

    def __len__(self) -> int:
        return 0

    def snapshot(self) -> dict:
        return {"type": "histogram", "count": 0, "buckets": []}


class NullRegistry(Registry):
    """A registry whose metrics discard all updates (no-op mode)."""

    _COUNTER = _NullCounter()
    _HISTOGRAM = _NullHistogram()

    def __init__(self) -> None:
        super().__init__()

    def counter(self, name: str):  # type: ignore[override]
        return self._COUNTER

    def histogram(self, name: str, buckets=None):  # type: ignore[override]
        return self._HISTOGRAM

    def snapshot(self) -> dict[str, dict]:
        return {}
