"""Property tests: hierarchy invariants under arbitrary access streams.

Whatever sequence of loads, stores, nt-stores, and flushes runs, the
inclusive-LLC invariant must hold and the memory-traffic accounting
must stay conservative (hits move no memory, misses move exactly one
line plus writebacks).
"""

from hypothesis import given, settings, strategies as st

from repro.cache import CacheHierarchy
from repro.config import CacheConfig, CacheLevelConfig
from repro.errors import CacheError
from repro.telemetry import Telemetry


def check_inclusion(hierarchy: CacheHierarchy) -> None:
    """Inclusive-LLC invariant: every L1/L2 line is also in the LLC."""
    for upper in (hierarchy.l1, hierarchy.l2):
        for upper_set in upper._sets:
            for aligned in upper_set:
                if not hierarchy.llc.contains(aligned):
                    raise CacheError(
                        f"{upper.name} line {aligned:#x} missing from "
                        "inclusive LLC")


def tiny_hierarchy(telemetry=None) -> CacheHierarchy:
    """Small enough that random streams evict constantly."""
    return CacheHierarchy(CacheConfig(
        l1=CacheLevelConfig("L1d", 1024, ways=2, latency_ns=1.0),
        l2=CacheLevelConfig("L2", 4096, ways=4, latency_ns=4.0),
        llc=CacheLevelConfig("LLC", 16384, ways=8, latency_ns=12.0),
    ), telemetry=telemetry)


operations = st.lists(
    st.tuples(st.sampled_from(["load", "store", "nt_store", "clflush",
                               "clwb"]),
              st.integers(min_value=0, max_value=1 << 16)),
    min_size=1, max_size=300)


class TestInclusionProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_inclusion_holds_after_any_stream(self, stream):
        hierarchy = tiny_hierarchy()
        for op, address in stream:
            getattr(hierarchy, op)(address)
        check_inclusion(hierarchy)       # raises CacheError on violation

    @settings(max_examples=30, deadline=None)
    @given(operations)
    def test_replaying_a_stream_is_deterministic(self, stream):
        def run():
            hierarchy = tiny_hierarchy()
            results = [getattr(hierarchy, op)(address)
                       for op, address in stream]
            return results, hierarchy.memory_writebacks

        assert run() == run()


class TestTrafficProperties:
    @settings(max_examples=60, deadline=None)
    @given(operations)
    def test_traffic_accounting_is_conservative(self, stream):
        hierarchy = tiny_hierarchy()
        for op, address in stream:
            result = getattr(hierarchy, op)(address)
            if op in ("clflush", "clwb"):
                continue                 # these return writeback counts
            assert result.latency_ns >= 0.0
            if result.hit:
                assert result.memory_reads == 0
                assert result.memory_writes == 0
            elif op in ("load", "store"):
                assert result.memory_reads == 1      # exactly one fill/RFO
            else:                                    # nt_store
                assert result.memory_reads == 0
                assert result.memory_writes >= 1     # the nt line itself

    @settings(max_examples=40, deadline=None)
    @given(operations)
    def test_registry_counters_mirror_functional_results(self, stream):
        telemetry = Telemetry.metrics_only()
        hierarchy = tiny_hierarchy(telemetry)
        reads = writes = 0
        for op, address in stream:
            result = getattr(hierarchy, op)(address)
            if op in ("clflush", "clwb"):
                continue
            reads += result.memory_reads
            writes += result.memory_writes
        registry = telemetry.registry
        measured_reads = registry.counter("cache.memory_reads").value \
            if "cache.memory_reads" in registry else 0
        measured_writes = registry.counter("cache.memory_writes").value \
            if "cache.memory_writes" in registry else 0
        assert measured_reads == reads
        assert measured_writes == writes

    @settings(max_examples=50, deadline=None)
    @given(st.integers(min_value=1, max_value=1 << 30))
    def test_hit_fractions_form_a_distribution(self, wss):
        fractions = tiny_hierarchy().hit_fractions(wss)
        assert abs(sum(fractions.values()) - 1.0) < 1e-9
        assert all(0.0 <= f <= 1.0 for f in fractions.values())
