"""Shared bandwidth/latency curves used by every memory backend.

Two effects dominate the paper's bandwidth plots:

1. **Queueing** — as offered load approaches a resource's capacity, the
   effective latency of each request inflates, which in a closed loop
   (fixed per-thread parallelism) caps throughput below the raw peak.
2. **Row locality** — DRAM sustains near-peak bandwidth only when
   consecutive requests hit open rows.  Small random blocks and many
   interleaved request streams both break locality; §4.3.1 notes that the
   CXL device's controller "received requests with fewer patterns as the
   thread count increased" and §4.3.2 shows 1 KiB random blocks hurting
   all three schemes equally.
"""

from __future__ import annotations

import math


def queueing_inflation(utilization: float, *, knee: float = 0.75,
                       max_factor: float = 8.0) -> float:
    """Latency inflation factor as a resource approaches saturation.

    A smooth M/M/1-flavoured curve: ~1.0 below ``knee`` utilization, then
    rising like ``1/(1-rho)`` and clipped at ``max_factor`` (real memory
    controllers apply backpressure rather than queueing unboundedly).

    >>> queueing_inflation(0.0)
    1.0
    >>> queueing_inflation(0.5) < queueing_inflation(0.9)
    True
    """
    if utilization < 0:
        raise ValueError(f"negative utilization: {utilization}")
    rho = min(utilization, 0.999)
    if rho <= knee:
        # Quadratic onset keeps the low-load region flat.
        return 1.0 + 0.15 * (rho / knee) ** 2
    excess = (rho - knee) / (1.0 - knee)
    factor = 1.15 + excess / (1.0 - rho)
    return min(factor, max_factor)


def row_locality_efficiency(block_bytes: int, streams_per_channel: float,
                            *, sequential_eff: float,
                            random_eff: float) -> float:
    """DRAM efficiency (fraction of theoretical peak) for blocked access.

    ``block_bytes`` is the contiguous run length of each request stream;
    ``streams_per_channel`` is how many independent streams a channel's
    scheduler must interleave.  Efficiency rises from ``random_eff`` (64 B
    scattered) toward ``sequential_eff`` (long runs), then is derated as
    stream count grows because interleaving streams reopens rows.
    """
    if block_bytes < 64:
        raise ValueError(f"block smaller than a cacheline: {block_bytes}")
    if streams_per_channel < 0:
        raise ValueError("stream count must be non-negative")
    if not 0 < random_eff <= sequential_eff <= 1:
        raise ValueError("need 0 < random_eff <= sequential_eff <= 1")

    # A DDR row is ~8 KiB (128 lines); runs beyond that gain nothing and
    # a single-line "run" (64 B) scores zero locality.
    run_score = min(1.0, math.log2(block_bytes / 64) / math.log2(128))
    base = random_eff + (sequential_eff - random_eff) * run_score

    # Stream mixing: each extra concurrent stream at the same channel
    # costs a few percent of locality, saturating at the random floor.
    mixing = 1.0 / (1.0 + 0.04 * max(0.0, streams_per_channel - 1.0))
    return max(random_eff, base * mixing)
