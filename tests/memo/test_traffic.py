"""Functional traffic counting validates the analytic RFO factors."""

import pytest

from repro import units
from repro.config import CacheConfig, CacheLevelConfig
from repro.cache import CacheHierarchy
from repro.cpu import AccessKind
from repro.errors import WorkloadError
from repro.memo.traffic import measure_stream_traffic
from repro.units import CACHELINE


def hierarchy() -> CacheHierarchy:
    return CacheHierarchy(CacheConfig(
        l1=CacheLevelConfig("L1d", units.kib(4), ways=4, latency_ns=2.0),
        l2=CacheLevelConfig("L2", units.kib(16), ways=4, latency_ns=8.0),
        llc=CacheLevelConfig("LLC", units.kib(64), ways=8,
                             latency_ns=25.0),
    ))


class TestTrafficFactors:
    def test_load_is_one_read_per_line(self):
        count = measure_stream_traffic(hierarchy(), AccessKind.LOAD, 256)
        assert count.reads_per_line == 1.0
        assert count.writes_per_line == 0.0
        assert count.traffic_factor == 1.0

    def test_nt_store_is_one_write_per_line(self):
        count = measure_stream_traffic(hierarchy(), AccessKind.NT_STORE,
                                       256)
        assert count.reads_per_line == 0.0
        assert count.writes_per_line == 1.0

    def test_temporal_store_pays_rfo_and_writeback(self):
        """The measured factor matches AccessKind.STORE.traffic_factor."""
        count = measure_stream_traffic(hierarchy(), AccessKind.STORE, 256)
        assert count.reads_per_line == 1.0     # RFO fills
        assert count.writes_per_line == 1.0    # eviction/flush writebacks
        assert count.traffic_factor == \
            AccessKind.STORE.traffic_factor

    def test_store_without_flush_hides_writebacks(self):
        """Short dirty streams park in the cache — the flush matters."""
        cheap = measure_stream_traffic(hierarchy(), AccessKind.STORE, 64,
                                       flush_after=False)
        honest = measure_stream_traffic(hierarchy(), AccessKind.STORE, 64,
                                        flush_after=True)
        assert cheap.memory_writes < honest.memory_writes

    def test_measured_matches_declared_for_all_kinds(self):
        for kind in (AccessKind.LOAD, AccessKind.STORE,
                     AccessKind.NT_STORE):
            count = measure_stream_traffic(hierarchy(), kind, 512)
            assert count.traffic_factor == pytest.approx(
                kind.traffic_factor, abs=0.05)

    def test_movdir_rejected(self):
        with pytest.raises(WorkloadError):
            measure_stream_traffic(hierarchy(), AccessKind.MOVDIR64B, 16)

    def test_zero_lines_rejected(self):
        with pytest.raises(WorkloadError):
            measure_stream_traffic(hierarchy(), AccessKind.LOAD, 0)


def measure_cache_pollution(hierarchy: CacheHierarchy, *,
                            victim_lines: int, writer_kind: AccessKind,
                            written_lines: int) -> float:
    """Fraction of a warm victim working set surviving a bulk write.

    Warm ``victim_lines`` into the hierarchy, stream a bulk write of
    ``written_lines`` with ``writer_kind``, then re-probe the victims
    in the LLC.
    """
    writer_base = 1 << 30
    for index in range(victim_lines):
        hierarchy.load(index * CACHELINE)
    for index in range(written_lines):
        address = writer_base + index * CACHELINE
        if writer_kind is AccessKind.STORE:
            hierarchy.store(address)
        elif writer_kind is AccessKind.NT_STORE:
            hierarchy.nt_store(address)
        else:
            raise WorkloadError("pollution test writes with st or nt-st")
    survived = sum(1 for index in range(victim_lines)
                   if hierarchy.llc.contains(index * CACHELINE))
    return survived / victim_lines


class TestCachePollution:
    """§6: how much of a victim working set survives a bulk write, on
    the functional cache hierarchy."""

    def test_nt_store_does_not_pollute(self):
        """§6: nt-stores avoid 'polluting the precious cache resources'."""
        survival = measure_cache_pollution(
            hierarchy(), victim_lines=256,
            writer_kind=AccessKind.NT_STORE, written_lines=4096)
        assert survival == 1.0

    def test_temporal_store_evicts_victims(self):
        survival = measure_cache_pollution(
            hierarchy(), victim_lines=256,
            writer_kind=AccessKind.STORE, written_lines=4096)
        assert survival < 0.1

    def test_small_writes_pollute_less(self):
        small = measure_cache_pollution(
            hierarchy(), victim_lines=256,
            writer_kind=AccessKind.STORE, written_lines=128)
        large = measure_cache_pollution(
            hierarchy(), victim_lines=256,
            writer_kind=AccessKind.STORE, written_lines=4096)
        assert small > large

    def test_load_kind_rejected_as_writer(self):
        with pytest.raises(WorkloadError):
            measure_cache_pollution(hierarchy(), victim_lines=16,
                                    writer_kind=AccessKind.LOAD,
                                    written_lines=16)
