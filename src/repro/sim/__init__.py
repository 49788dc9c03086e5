"""A small discrete-event simulation (DES) kernel.

The engine drives the request-level application studies (Redis-YCSB,
DeathStarBench), where *tail* latency — not just the mean — is the
result the paper reports, as well as the end-to-end CXL pipelines and
the cluster pool.

Public surface:

* :class:`~repro.sim.engine.Engine` — the event loop and clock (ns).
* :class:`~repro.sim.resources.Server` — the capacity-``n`` FIFO
  station models acquire and release by callback.
* :class:`~repro.sim.stats.LatencyRecorder`,
  :class:`~repro.sim.stats.RateMeter` — measurement.
* :func:`~repro.sim.rng.substream` — deterministic named RNG streams.
"""

from .engine import Engine
from .resources import Server
from .stats import (
    LatencyRecorder,
    RateMeter,
    percentile,
    window_slot,
    window_width,
)
from .rng import substream

__all__ = [
    "Engine",
    "Server",
    "LatencyRecorder",
    "RateMeter",
    "percentile",
    "window_slot",
    "window_width",
    "substream",
]
