"""The three-level hierarchy: functional simulation + analytic hit model.

Two complementary interfaces:

* **Functional** — :meth:`CacheHierarchy.load` / :meth:`store` /
  :meth:`nt_store` / :meth:`clflush` / :meth:`clwb` simulate real line
  movement and report which level hit and what memory traffic resulted.
  MEMO's latency probes run on this.
* **Analytic** — :func:`hit_fractions` estimates, for a working set
  chased uniformly, what fraction of accesses each level serves.  The
  pointer-chase-vs-WSS staircase (Fig. 2 right) is computed from this
  rather than simulating millions of accesses.  Both analytic functions
  read only the :class:`CacheConfig`, so the staircase needs no
  hierarchy; :class:`CacheHierarchy` exposes them as methods too.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from ..config import CacheConfig
from ..errors import CacheError
from ..telemetry import NULL_TELEMETRY, Telemetry
from .cache import SetAssociativeCache
from .cacheline import MesiState, line_address


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one functional access."""

    level: str                  # "L1d", "L2", "LLC", or "memory"
    hit: bool                   # False when served by memory
    latency_ns: float           # hierarchy traversal time (no memory time)
    memory_reads: int = 0       # 64 B fills/RFOs sent below the LLC
    memory_writes: int = 0      # 64 B writebacks / nt-stores sent below


def hit_fractions(config: CacheConfig,
                  working_set_bytes: int) -> dict[str, float]:
    """Steady-state hit distribution for a uniform chase over a WSS.

    Each level of capacity ``C`` captures ``min(1, C/WSS)`` of
    accesses not already captured above it — the standard stacked-
    capacity approximation.  Returns fractions for "L1d"/"L2"/"LLC"/
    "memory" summing to 1.
    """
    if working_set_bytes <= 0:
        raise CacheError(
            f"working set must be positive: {working_set_bytes}")
    remaining = 1.0
    fractions: dict[str, float] = {}
    for level in config.levels:
        capture = min(1.0, level.capacity_bytes / working_set_bytes)
        fractions[level.name] = remaining * capture
        remaining *= 1.0 - capture
    fractions["memory"] = remaining
    return fractions


def expected_latency_ns(config: CacheConfig, working_set_bytes: int,
                        memory_latency_ns: float) -> float:
    """Average dependent-access latency for a WSS (the Fig-2 staircase).

    A hit at level i pays the traversal up to that level; a miss pays
    the full hierarchy traversal plus ``memory_latency_ns``.
    """
    fractions = hit_fractions(config, working_set_bytes)
    total = 0.0
    traversal = 0.0
    for level in config.levels:
        traversal += level.latency_ns
        total += fractions[level.name] * traversal
    total += fractions["memory"] * (traversal + memory_latency_ns)
    return total


class _MemoryWritebacks:
    """The LLC's eviction sink: counts dirty lines written to memory.

    Holding the count here rather than on the hierarchy keeps the
    levels free of references back to it, so a dropped hierarchy is
    freed at once instead of by the cycle collector.
    """

    __slots__ = ("count", "_registry")

    def __init__(self, registry) -> None:
        self.count = 0
        self._registry = registry

    def __call__(self, address: int) -> None:
        del address
        self.count += 1
        self._registry.counter("cache.memory_writebacks").inc()


class CacheHierarchy:
    """L1d + L2 + inclusive LLC of one core's view of one socket."""

    def __init__(self, config: CacheConfig, *,
                 telemetry: Telemetry | None = None) -> None:
        self.config = config
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self._registry = self.telemetry.registry
        self.l1 = SetAssociativeCache(config.l1)
        self.l2 = SetAssociativeCache(config.l2)
        self.llc = SetAssociativeCache(config.llc)
        self.levels = [self.l1, self.l2, self.llc]
        # Dirty evictions cascade down, landing MODIFIED in the level
        # below; only the LLC's reach memory.
        self.l1.eviction_sink = partial(self.l2.install,
                                        state=MesiState.MODIFIED)
        self.l2.eviction_sink = partial(self.llc.install,
                                        state=MesiState.MODIFIED)
        self._memory_writebacks = _MemoryWritebacks(self._registry)
        self.llc.eviction_sink = self._memory_writebacks

    @property
    def memory_writebacks(self) -> int:
        """Dirty lines the LLC has evicted to memory."""
        return self._memory_writebacks.count

    def _count(self, result: AccessResult) -> AccessResult:
        """Mirror one functional access into the telemetry registry."""
        registry = self._registry
        level = result.level.lower()
        registry.counter(f"cache.{level}.serviced").inc()
        if result.memory_reads:
            registry.counter("cache.memory_reads").inc(
                result.memory_reads)
        if result.memory_writes:
            registry.counter("cache.memory_writes").inc(
                result.memory_writes)
        return result

    # -- functional interface ---------------------------------------------

    def load(self, address: int) -> AccessResult:
        """A demand load; fills all levels on the way back (inclusive)."""
        aligned = line_address(address)
        latency = 0.0
        for cache in self.levels:
            latency += cache.config.latency_ns
            if cache.contains(aligned):
                cache.access(aligned, write=False)
                self._fill_above(cache, aligned, MesiState.EXCLUSIVE)
                return self._count(AccessResult(cache.name, True, latency))
        for cache in self.levels:
            cache.install(aligned, MesiState.EXCLUSIVE)
        return self._count(
            AccessResult("memory", False, latency, memory_reads=1))

    def store(self, address: int) -> AccessResult:
        """A temporal store: write-allocate with RFO on miss.

        The dirty copy lives in L1 only; lower levels hold the line
        clean (Exclusive).  Dirty data reaches them through eviction
        cascades, and reaches memory only from the LLC — which is what
        makes bus-traffic accounting honest (one writeback per line).
        """
        aligned = line_address(address)
        latency = 0.0
        hit_cache = None
        for cache in self.levels:
            latency += cache.config.latency_ns
            if cache.contains(aligned):
                hit_cache = cache
                break
        if hit_cache is self.l1:
            self.l1.access(aligned, write=True)
            return self._count(AccessResult(self.l1.name, True, latency))
        for cache in self.levels:
            if cache is hit_cache:
                break
            state = MesiState.MODIFIED if cache is self.l1 \
                else MesiState.EXCLUSIVE
            cache.install(aligned, state)
        if hit_cache is not None:
            return self._count(
                AccessResult(hit_cache.name, True, latency))
        # Miss everywhere: the RFO reads the line from memory.
        return self._count(
            AccessResult("memory", False, latency, memory_reads=1))

    def nt_store(self, address: int) -> AccessResult:
        """A non-temporal store: bypasses the hierarchy entirely.

        Any resident copy is dropped (dirty copies write back first) to
        preserve coherence, then one 64 B write goes straight to memory —
        no RFO, no allocation (§4.2).
        """
        aligned = line_address(address)
        extra_writebacks = sum(
            1 for cache in self.levels if cache.flush(aligned))
        return self._count(
            AccessResult("memory", False, 0.0,
                         memory_writes=1 + extra_writebacks))

    def clflush(self, address: int) -> int:
        """Flush a line from every level; returns writebacks performed."""
        aligned = line_address(address)
        return sum(1 for cache in self.levels if cache.flush(aligned))

    def clwb(self, address: int) -> int:
        """Write back dirty copies, keeping lines resident."""
        aligned = line_address(address)
        return sum(1 for cache in self.levels if cache.writeback(aligned))

    def _fill_above(self, hit_cache: SetAssociativeCache, aligned: int,
                    state: MesiState) -> None:
        for cache in self.levels:
            if cache is hit_cache:
                break
            cache.install(aligned, state)

    def check_inclusion(self) -> None:
        """Inclusive-LLC invariant: every L1/L2 line is also in the LLC."""
        for upper in (self.l1, self.l2):
            for upper_set in upper._sets:
                for aligned in upper_set:
                    if not self.llc.contains(aligned):
                        raise CacheError(
                            f"{upper.name} line {aligned:#x} missing from "
                            "inclusive LLC")

    # -- analytic interface ----------------------------------------------

    def hit_fractions(self, working_set_bytes: int) -> dict[str, float]:
        """:func:`hit_fractions` of this hierarchy's config."""
        return hit_fractions(self.config, working_set_bytes)

    def expected_latency_ns(self, working_set_bytes: int,
                            memory_latency_ns: float) -> float:
        """:func:`expected_latency_ns` of this hierarchy's config."""
        return expected_latency_ns(self.config, working_set_bytes,
                                   memory_latency_ns)
