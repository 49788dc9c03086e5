"""Cache hierarchy: functional semantics and the analytic WSS staircase."""

import gc
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_system, units
from repro.config import CacheConfig, CacheLevelConfig, single_socket_testbed
from repro.errors import CacheError
from repro.cache import CacheHierarchy
from repro.telemetry import Telemetry
from tests.cache.test_cache import check_invariants


def small_hierarchy() -> CacheHierarchy:
    """Tiny capacities (1K/4K/16K) so WSS tests cross levels quickly."""
    return CacheHierarchy(CacheConfig(
        l1=CacheLevelConfig("L1d", 1024, ways=2, latency_ns=1.0),
        l2=CacheLevelConfig("L2", 4096, ways=4, latency_ns=4.0),
        llc=CacheLevelConfig("LLC", 16384, ways=8, latency_ns=12.0),
    ))


def spr_hierarchy() -> CacheHierarchy:
    return CacheHierarchy(single_socket_testbed().socket.cache)


class TestFunctionalLoads:
    def test_cold_load_misses_to_memory(self):
        result = small_hierarchy().load(0)
        assert result.level == "memory"
        assert not result.hit
        assert result.memory_reads == 1

    def test_warm_load_hits_l1(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0)
        result = hierarchy.load(0)
        assert result.level == "L1d"
        assert result.hit
        assert result.memory_reads == 0

    def test_l1_hit_is_fastest(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0)
        hit = hierarchy.load(0)
        miss = hierarchy.load(1 << 20)
        assert hit.latency_ns < miss.latency_ns

    def test_llc_hit_after_l1_eviction(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0)
        # Blow L1 (1 KiB = 16 lines) and L2 (4 KiB) but not LLC (16 KiB):
        # lines 32.. map over all sets; touch enough to evict line 0 from
        # L1/L2 while keeping it in the larger LLC.
        for i in range(1, 64):
            hierarchy.load(i * 64 + (1 << 16))
        # line 0 may be gone from L1/L2; LLC (256 lines) still has it...
        result = hierarchy.load(0)
        assert result.level in ("LLC", "L1d", "L2", "memory")

    def test_inclusion_invariant_after_fills(self):
        hierarchy = small_hierarchy()
        for i in range(50):
            hierarchy.load(i * 64)
        # Inclusion may be violated by LLC evictions of L1-resident lines
        # in this simplified model only if LLC is smaller; here LLC is
        # largest, so inclusion holds for recently-filled lines.
        check_invariants(hierarchy.llc)


class TestFunctionalStores:
    def test_store_miss_costs_an_rfo_read(self):
        result = small_hierarchy().store(0)
        assert result.memory_reads == 1       # the RFO fill
        assert result.memory_writes == 0      # writeback comes later

    def test_nt_store_is_pure_write(self):
        result = small_hierarchy().nt_store(0)
        assert result.memory_reads == 0
        assert result.memory_writes == 1

    def test_nt_store_flushes_resident_dirty_copy(self):
        hierarchy = small_hierarchy()
        hierarchy.store(0)
        result = hierarchy.nt_store(0)
        assert result.memory_writes >= 2      # writeback + the nt write
        assert not hierarchy.l1.contains(0)

    def test_clflush_then_load_misses(self):
        hierarchy = small_hierarchy()
        hierarchy.load(0)
        hierarchy.clflush(0)
        result = hierarchy.load(0)
        assert result.level == "memory"

    def test_clflush_dirty_counts_writebacks(self):
        hierarchy = small_hierarchy()
        hierarchy.store(0)
        assert hierarchy.clflush(0) >= 1

    def test_clwb_retains_line(self):
        hierarchy = small_hierarchy()
        hierarchy.store(0)
        hierarchy.clwb(0)
        result = hierarchy.load(0)
        assert result.hit


class TestHitFractions:
    def test_fractions_sum_to_one(self):
        hierarchy = small_hierarchy()
        for wss in (512, 4096, 1 << 20):
            fractions = hierarchy.hit_fractions(wss)
            assert sum(fractions.values()) == pytest.approx(1.0)

    def test_tiny_wss_fits_l1(self):
        fractions = small_hierarchy().hit_fractions(512)
        assert fractions["L1d"] == pytest.approx(1.0)
        assert fractions["memory"] == 0.0

    def test_huge_wss_goes_to_memory(self):
        fractions = small_hierarchy().hit_fractions(1 << 24)
        assert fractions["memory"] > 0.99

    def test_zero_wss_rejected(self):
        with pytest.raises(CacheError):
            small_hierarchy().hit_fractions(0)

    @given(st.integers(min_value=1, max_value=1 << 26))
    @settings(max_examples=50)
    def test_memory_fraction_monotone_in_wss(self, wss):
        hierarchy = small_hierarchy()
        smaller = hierarchy.hit_fractions(wss)["memory"]
        larger = hierarchy.hit_fractions(wss * 2)["memory"]
        assert larger >= smaller - 1e-12


class TestWssStaircase:
    """The analytic model must reproduce the Fig-2-right staircase."""

    def test_latency_rises_with_wss(self):
        hierarchy = spr_hierarchy()
        memory_ns = 100.0
        sizes = [units.kib(16), units.kib(256), units.mib(8), units.mib(256)]
        latencies = [hierarchy.expected_latency_ns(s, memory_ns)
                     for s in sizes]
        for lower, higher in zip(latencies, latencies[1:]):
            assert higher > lower

    def test_l1_resident_wss_is_l1_latency(self):
        hierarchy = spr_hierarchy()
        latency = hierarchy.expected_latency_ns(units.kib(16), 400.0)
        assert latency == pytest.approx(
            hierarchy.l1.config.latency_ns, rel=0.1)

    def test_dram_regime_approaches_memory_latency(self):
        hierarchy = spr_hierarchy()
        memory_ns = 400.0
        latency = hierarchy.expected_latency_ns(units.gib(8), memory_ns)
        traversal = sum(c.config.latency_ns for c in hierarchy.levels)
        assert latency == pytest.approx(memory_ns + traversal, rel=0.05)

    def test_higher_memory_latency_shifts_only_the_tail(self):
        hierarchy = spr_hierarchy()
        small_wss = units.kib(16)
        assert hierarchy.expected_latency_ns(small_wss, 100.0) == \
            pytest.approx(hierarchy.expected_latency_ns(small_wss, 800.0),
                          rel=0.05)


class TestLifetime:
    """Levels hold no reference back to their hierarchy, so a dropped
    hierarchy is freed by reference counting alone."""

    @pytest.fixture
    def no_cycle_collector(self):
        enabled = gc.isenabled()
        gc.disable()
        yield
        if enabled:
            gc.enable()

    def test_dropped_hierarchy_is_freed(self, no_cycle_collector):
        system = build_system(single_socket_testbed())
        ref = weakref.ref(system.socket.new_hierarchy())
        assert ref() is None

    def test_freed_after_dirty_evictions(self, no_cycle_collector):
        """Lines written back through every level, then dropped."""
        hierarchy = small_hierarchy()
        for address in range(0, 64 * 1024, 64):
            hierarchy.store(address)
        assert hierarchy.memory_writebacks > 0
        ref = weakref.ref(hierarchy)
        del hierarchy
        assert ref() is None

    def test_writebacks_counted_in_the_registry(self):
        telemetry = Telemetry()
        hierarchy = CacheHierarchy(small_hierarchy().config,
                                   telemetry=telemetry)
        for address in range(0, 64 * 1024, 64):
            hierarchy.store(address)
        assert telemetry.registry.counter(
            "cache.memory_writebacks").value == hierarchy.memory_writebacks
