"""Set-associative cache level: LRU, eviction, flush, invariants."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.config import CacheLevelConfig
from repro.errors import CacheError
from repro.cache import MesiState, SetAssociativeCache


def tiny_cache(ways=2, sets=4) -> SetAssociativeCache:
    """A 2-way, 4-set, 64 B-line cache (512 B) so evictions are easy."""
    config = CacheLevelConfig("tiny", capacity_bytes=ways * sets * 64,
                              ways=ways, latency_ns=1.0)
    return SetAssociativeCache(config)


def check_invariants(cache: SetAssociativeCache) -> None:
    """Structural invariants; cheap enough for property tests."""
    for index, target_set in enumerate(cache._sets):
        if len(target_set) > cache.config.ways:
            raise CacheError(
                f"{cache.name} set {index} holds {len(target_set)} lines "
                f"> {cache.config.ways} ways")
        for aligned, line in target_set.items():
            if line.address != aligned:
                raise CacheError("set key does not match line address")
            if cache._set_index(aligned) != index:
                raise CacheError("line stored in the wrong set")
            if not line.state.is_valid:
                raise CacheError("invalid line left resident")


def addr(set_index: int, way_tag: int, sets: int = 4) -> int:
    """An address mapping to ``set_index`` with a distinct tag."""
    return (way_tag * sets + set_index) * 64


class TestBasicAccess:
    def test_first_access_misses_then_hits(self):
        cache = tiny_cache()
        assert cache.access(0, write=False) is False
        assert cache.access(0, write=False) is True

    def test_addresses_in_same_line_share_it(self):
        cache = tiny_cache()
        cache.access(0, write=False)
        assert cache.access(63, write=False) is True
        assert cache.access(64, write=False) is False

    def test_stats_track_hits_and_misses(self):
        cache = tiny_cache()
        cache.access(0, write=False)
        cache.access(0, write=False)
        cache.access(64, write=False)
        assert cache.stats.hits == 1
        assert cache.stats.misses == 2
        assert cache.stats.hit_rate == pytest.approx(1 / 3)

    def test_hit_rate_of_untouched_cache_raises(self):
        with pytest.raises(CacheError):
            _ = tiny_cache().stats.hit_rate

    def test_store_marks_modified(self):
        cache = tiny_cache()
        cache.access(0, write=True)
        assert cache.lookup(0).state is MesiState.MODIFIED

    def test_load_installs_exclusive(self):
        cache = tiny_cache()
        cache.access(0, write=False)
        assert cache.lookup(0).state is MesiState.EXCLUSIVE


class TestLru:
    def test_lru_victim_is_least_recently_used(self):
        cache = tiny_cache(ways=2)
        a, b, c = addr(0, 0), addr(0, 1), addr(0, 2)
        cache.access(a, write=False)
        cache.access(b, write=False)
        cache.access(a, write=False)          # refresh a
        cache.access(c, write=False)          # evicts b
        assert cache.contains(a)
        assert not cache.contains(b)
        assert cache.contains(c)

    def test_eviction_counts(self):
        cache = tiny_cache(ways=2)
        for tag in range(3):
            cache.access(addr(0, tag), write=False)
        assert cache.stats.evictions == 1

    def test_dirty_eviction_writes_back(self):
        cache = tiny_cache(ways=2)
        cache.access(addr(0, 0), write=True)     # dirty
        cache.access(addr(0, 1), write=False)
        cache.access(addr(0, 2), write=False)    # evicts the dirty line
        assert cache.stats.writebacks == 1

    def test_different_sets_do_not_conflict(self):
        cache = tiny_cache(ways=2, sets=4)
        for set_index in range(4):
            cache.access(addr(set_index, 0), write=False)
        assert cache.stats.evictions == 0
        assert cache.resident_lines() == 4


class TestFlushOperations:
    def test_flush_removes_line(self):
        cache = tiny_cache()
        cache.access(0, write=False)
        assert cache.flush(0) is False        # clean: no writeback
        assert not cache.contains(0)

    def test_flush_dirty_reports_writeback(self):
        cache = tiny_cache()
        cache.access(0, write=True)
        assert cache.flush(0) is True

    def test_flush_absent_line_is_noop(self):
        assert tiny_cache().flush(0) is False

    def test_clwb_keeps_line_resident(self):
        cache = tiny_cache()
        cache.access(0, write=True)
        assert cache.writeback(0) is True
        assert cache.contains(0)
        assert not cache.lookup(0).state.is_dirty

    def test_invalidate_drops_without_writeback(self):
        cache = tiny_cache()
        cache.access(0, write=True)
        cache.invalidate(0)
        assert not cache.contains(0)
        assert cache.stats.writebacks == 0


class TestInstall:
    def test_install_invalid_rejected(self):
        with pytest.raises(CacheError):
            tiny_cache().install(0, MesiState.INVALID)

    def test_install_respects_ways(self):
        cache = tiny_cache(ways=2)
        for tag in range(5):
            cache.install(addr(0, tag), MesiState.EXCLUSIVE)
        check_invariants(cache)
        assert cache.resident_lines() == 2


class TestInvariantsProperty:
    @settings(max_examples=50, deadline=None)
    @given(st.lists(st.tuples(st.integers(min_value=0, max_value=4096),
                              st.booleans(),
                              st.sampled_from(["access", "flush", "clwb",
                                               "invalidate"])),
                    max_size=200))
    def test_invariants_hold_under_any_trace(self, trace):
        cache = tiny_cache()
        for address, write, op in trace:
            if op == "access":
                cache.access(address, write=write)
            elif op == "flush":
                cache.flush(address)
            elif op == "clwb":
                cache.writeback(address)
            else:
                cache.invalidate(address)
        check_invariants(cache)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.integers(min_value=0, max_value=64), min_size=1,
                    max_size=300))
    def test_occupancy_never_exceeds_capacity(self, line_indices):
        cache = tiny_cache()
        for index in line_indices:
            cache.access(index * 64, write=False)
        assert cache.resident_lines() <= 8     # 2 ways x 4 sets
