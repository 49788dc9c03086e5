"""A set-associative cache level with LRU replacement."""

from __future__ import annotations

from dataclasses import dataclass

from ..config import CacheLevelConfig
from ..errors import CacheError
from .cacheline import CacheLine, MesiState, line_address
from .coherence import MesiCoherence


@dataclass
class CacheStats:
    """Hit/miss/traffic counters for one level."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        if not self.accesses:
            raise CacheError("hit rate of an untouched cache")
        return self.hits / self.accesses


class SetAssociativeCache:
    """One cache level: ``num_sets`` x ``ways`` of 64 B lines, LRU."""

    def __init__(self, config: CacheLevelConfig) -> None:
        self.config = config
        self.stats = CacheStats()
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(config.num_sets)]
        self._clock = 0
        # Where dirty evictions land: the next level installs the line
        # MODIFIED; the LLC's sink counts a memory writeback.  None means
        # "standalone cache" (dirty evictions counted locally only).
        self.eviction_sink = None

    @property
    def name(self) -> str:
        return self.config.name

    def _set_index(self, address: int) -> int:
        return (address // self.config.line_bytes) % self.config.num_sets

    def _touch(self, line: CacheLine) -> None:
        self._clock += 1
        line.last_touch = self._clock

    # -- queries ---------------------------------------------------------

    def lookup(self, address: int) -> CacheLine | None:
        """The resident line containing ``address``, or None (no side effects)."""
        aligned = line_address(address)
        return self._sets[self._set_index(aligned)].get(aligned)

    def contains(self, address: int) -> bool:
        line = self.lookup(address)
        return line is not None and line.state.is_valid

    def resident_lines(self) -> int:
        """Total valid lines (for occupancy assertions in tests)."""
        return sum(len(s) for s in self._sets)

    # -- operations ------------------------------------------------------

    def access(self, address: int, *, write: bool) -> bool:
        """Load or temporal-store access.  Returns True on hit.

        On a miss the line is installed (write-allocate), evicting the
        LRU way if the set is full.  Coherence side effects follow
        :class:`MesiCoherence`.
        """
        aligned = line_address(address)
        line = self.lookup(aligned)
        if line is not None and line.state.is_valid:
            self.stats.hits += 1
            transition = (MesiCoherence.on_store if write
                          else MesiCoherence.on_load)
            line.state, _ = transition(line.state)
            self._touch(line)
            return True

        self.stats.misses += 1
        new_state = MesiState.MODIFIED if write else MesiState.EXCLUSIVE
        self._install(aligned, new_state)
        return False

    def install(self, address: int, state: MesiState) -> None:
        """Install a line in a given state (used by fills from below)."""
        if not state.is_valid:
            raise CacheError("cannot install an invalid line")
        self._install(line_address(address), state)

    def _install(self, aligned: int, state: MesiState) -> None:
        target_set = self._sets[self._set_index(aligned)]
        if aligned not in target_set and len(target_set) >= self.config.ways:
            victim = min(target_set.values(), key=lambda l: l.last_touch)
            self._evict(victim)
        line = target_set.get(aligned)
        if line is None:
            line = CacheLine(aligned, state)
            target_set[aligned] = line
        else:
            line.state = state
        self._touch(line)

    def _evict(self, victim: CacheLine) -> None:
        _, actions = MesiCoherence.on_eviction(victim.state)
        self.stats.evictions += 1
        del self._sets[self._set_index(victim.address)][victim.address]
        if "writeback" in actions:
            self.stats.writebacks += 1
            if self.eviction_sink is not None:
                self.eviction_sink(victim.address)

    def flush(self, address: int) -> bool:
        """clflush one line.  Returns True if a dirty copy was written back."""
        aligned = line_address(address)
        line = self.lookup(aligned)
        if line is None or not line.state.is_valid:
            return False
        _, actions = MesiCoherence.on_clflush(line.state)
        dirty = "writeback" in actions
        if dirty:
            self.stats.writebacks += 1
        del self._sets[self._set_index(aligned)][aligned]
        return dirty

    def writeback(self, address: int) -> bool:
        """clwb one line: push dirty data down, keep the line resident."""
        aligned = line_address(address)
        line = self.lookup(aligned)
        if line is None or not line.state.is_valid:
            return False
        state, actions = MesiCoherence.on_clwb(line.state)
        line.state = state
        dirty = "writeback" in actions
        if dirty:
            self.stats.writebacks += 1
        return dirty

    def invalidate(self, address: int) -> None:
        """Drop a line without writeback (nt-store / external invalidate)."""
        aligned = line_address(address)
        target_set = self._sets[self._set_index(aligned)]
        target_set.pop(aligned, None)
