"""Unicode sparklines for compact series rendering in CLI output.

`▁▂▃▄▅▆▇█` bars give a one-line visual of each curve next to its table —
useful when a report holds nine panels of Fig-5 grids and the reader
wants shape at a glance.
"""

from __future__ import annotations

from ..errors import ExperimentError
from .series import Series

BARS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], *, lo: float | None = None,
              hi: float | None = None) -> str:
    """Render values as a bar-per-point string.

    ``lo``/``hi`` pin the scale (e.g. zero-based for bandwidths); by
    default the scale spans the data.  A flat series renders mid-height.
    """
    if not values:
        raise ExperimentError("cannot sparkline an empty series")
    low = min(values) if lo is None else lo
    high = max(values) if hi is None else hi
    if high < low:
        raise ExperimentError(f"hi < lo: {high} < {low}")
    span = high - low
    if span == 0:
        return BARS[len(BARS) // 2] * len(values)
    cells = []
    for value in values:
        clamped = min(max(value, low), high)
        index = int((clamped - low) / span * (len(BARS) - 1))
        cells.append(BARS[index])
    return "".join(cells)


def trend(values: list[float], *, width: int = 24) -> str:
    """A sparkline of the last ``width`` points, tolerant of thin data.

    The ``repro-report`` trend-cell renderer: an empty history renders
    as a placeholder dot rather than raising, and a single point (a
    fresh ledger, a one-entry ``BENCH_*.json``) renders as one
    mid-height bar — the table column stays well-formed while history
    accumulates.
    """
    if not values:
        return "·"
    return sparkline(values[-width:])


def series_sparklines(series_list: list[Series], *,
                      zero_based: bool = True) -> str:
    """One labelled sparkline per series, shared scale across the set."""
    if not series_list:
        raise ExperimentError("no series to render")
    all_values = [v for s in series_list for v in s.y]
    lo = 0.0 if zero_based else min(all_values)
    hi = max(all_values)
    width = max(len(s.name) for s in series_list)
    lines = []
    for series in series_list:
        lines.append(f"{series.name.rjust(width)}  "
                     f"{sparkline(series.y, lo=lo, hi=hi)}  "
                     f"max={series.max_y:.3g}")
    return "\n".join(lines)
