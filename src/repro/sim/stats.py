"""Measurement utilities: percentile estimation and rate metering.

The paper reports p99 tail latency (Figs 6, 10) and sustained bandwidth
over fixed intervals (§4.3 — "the main program calculates the average
bandwidth for a fixed interval").  Both measurement styles live here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from ..telemetry.metrics import Histogram, interpolate_percentile


def percentile(samples: list[float], pct: float) -> float:
    """Linear-interpolated percentile, ``pct`` in [0, 100].

    Matches ``numpy.percentile(..., method='linear')`` without requiring
    a numpy array.  One-shot convenience over an unsorted list; code
    that takes repeated percentiles of a growing sample set should use
    :class:`LatencyRecorder` (or :class:`repro.telemetry.Histogram`
    directly), whose sorted cache avoids the re-sort per call.
    """
    if not samples:
        raise ValueError("percentile of an empty sample set")
    return interpolate_percentile(sorted(samples), pct)


class LatencyRecorder:
    """Accumulates latency samples and reports summary statistics.

    A thin guard over :class:`repro.telemetry.Histogram` — one shared
    percentile implementation (with its record-invalidated sorted
    cache), so the DES stat path and the telemetry snapshot path cannot
    drift.
    """

    def __init__(self, name: str = "latency", *,
                 histogram: Histogram | None = None) -> None:
        self.name = name
        self._hist = histogram if histogram is not None \
            else Histogram(name)

    def record(self, latency_ns: float) -> None:
        """Add one sample; a negative or NaN latency is a model bug."""
        if not latency_ns >= 0:       # also false for NaN
            raise ValueError(
                f"{self.name}: negative or NaN latency recorded: "
                f"{latency_ns}")
        self._hist.record(latency_ns)

    def extend(self, latencies_ns: Sequence[float]) -> None:
        """:meth:`record` each sample in order; the batch is checked
        whole before any sample is added."""
        for latency_ns in latencies_ns:
            if not latency_ns >= 0:   # also false for NaN
                raise ValueError(
                    f"{self.name}: negative or NaN latency recorded: "
                    f"{latency_ns}")
        self._hist.extend(latencies_ns)

    def __len__(self) -> int:
        return len(self._hist)

    @property
    def histogram(self) -> Histogram:
        """The backing telemetry histogram (bucket counts + percentiles)."""
        return self._hist

    @property
    def samples(self) -> list[float]:
        """A copy of the raw samples (ns)."""
        return self._hist.samples

    def mean(self) -> float:
        return self._hist.mean()

    def p(self, pct: float) -> float:
        """Percentile of the recorded samples (cached-sort path)."""
        return self._hist.percentile(pct)

    def p50(self) -> float:
        return self.p(50.0)

    def p99(self) -> float:
        """The paper's headline tail metric."""
        return self.p(99.0)

    def max(self) -> float:
        return self._hist.max()

    def summary(self) -> dict[str, float]:
        """Mean / p50 / p99 / max in one dict, for table rendering."""
        return {
            "count": float(len(self._hist)),
            "mean_ns": self.mean(),
            "p50_ns": self.p50(),
            "p99_ns": self.p99(),
            "max_ns": self.max(),
        }


@dataclass
class RateMeter:
    """Counts completed bytes/operations over a simulated window."""

    name: str = "rate"
    bytes_total: float = 0.0
    ops_total: int = 0
    window_start_ns: float = 0.0

    def add(self, nbytes: float, ops: int = 1) -> None:
        """Record ``nbytes`` moved by ``ops`` completed operations."""
        if nbytes < 0 or ops < 0:
            raise ValueError("rate meter additions must be non-negative")
        self.bytes_total += nbytes
        self.ops_total += ops

    def bandwidth(self, now_ns: float) -> float:
        """Average B/s since ``window_start_ns``."""
        elapsed = now_ns - self.window_start_ns
        if elapsed <= 0:
            raise ValueError("rate window has zero or negative length")
        return self.bytes_total / (elapsed / 1e9)

    def throughput(self, now_ns: float) -> float:
        """Average operations/s since ``window_start_ns``."""
        elapsed = now_ns - self.window_start_ns
        if elapsed <= 0:
            raise ValueError("rate window has zero or negative length")
        return self.ops_total / (elapsed / 1e9)

    def reset(self, now_ns: float) -> None:
        """Start a fresh measurement window at ``now_ns``."""
        self.bytes_total = 0.0
        self.ops_total = 0
        self.window_start_ns = now_ns


def window_width(end_ns: float, count: int) -> float:
    """Width of each of ``count`` equal windows covering [0, end_ns).

    Degenerate spans get a 1 ns width so callers never divide by zero:
    ``end_ns <= 0`` (e.g. a single instantaneous event at t=0), and a
    subnormal ``end_ns`` whose width, or that width in seconds,
    underflows to zero.
    Used by the fixed-interval measurement style of §4.3 and by the
    span layer's time-windowed series
    (:mod:`repro.telemetry.spans`).
    """
    if count <= 0:
        raise ValueError(f"window count must be positive, got {count}")
    width = end_ns / count
    return width if width / 1e9 > 0.0 else 1.0


def window_slot(ts_ns: float, width_ns: float, count: int) -> int:
    """Index of the window containing ``ts_ns``.

    The final window is closed on the right: a timestamp exactly at
    (or past, from float rounding) the end of the covered span lands
    in window ``count - 1`` rather than out of range.
    """
    if count <= 0:
        raise ValueError(f"window count must be positive, got {count}")
    return min(count - 1, int(ts_ns // width_ns))
