"""CPU cache hierarchy with MESI coherence.

The cache model serves three roles in the reproduction:

* **RFO accounting** — temporal stores read-for-ownership before writing,
  doubling bus traffic versus non-temporal stores (§4.2); the MESI state
  machine in :mod:`~repro.cache.coherence` makes that explicit.
* **Flush semantics** — MEMO's latency probe flushes a line
  (``clflush`` + ``mfence``) before timing the access (§4.2);
  :class:`~repro.cache.hierarchy.CacheHierarchy` implements ``clflush`` /
  ``clwb`` with inclusive levels.
* **WSS staircase** — pointer chasing latency versus working-set size
  crosses L1/L2/LLC capacities (Fig. 2 right);
  :func:`~repro.cache.hierarchy.hit_fractions` provides the analytic
  hit distribution behind that curve, from the cache config alone.
"""

from .cacheline import CacheLine, MesiState
from .coherence import MesiCoherence
from .cache import SetAssociativeCache
from .hierarchy import AccessResult, CacheHierarchy
from .prefetcher import StreamPrefetcher

__all__ = [
    "MesiState",
    "CacheLine",
    "MesiCoherence",
    "SetAssociativeCache",
    "CacheHierarchy",
    "AccessResult",
    "StreamPrefetcher",
]
