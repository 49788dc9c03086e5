"""Property-based invariants of the performance models."""

import pytest
from hypothesis import given, settings, strategies as st

from repro import build_system, combined_testbed
from repro.cpu import AccessKind, MemoryScheme
from repro.mem import AccessPattern
from repro.perfmodel import LatencyModel, ThroughputModel

SCHEMES = [MemoryScheme.DDR5_L8, MemoryScheme.DDR5_R1, MemoryScheme.CXL]
KINDS = [AccessKind.LOAD, AccessKind.STORE, AccessKind.NT_STORE]


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture(scope="module")
def throughput(system):
    return ThroughputModel(system)


@pytest.fixture(scope="module")
def latency(system):
    return LatencyModel(system)


class TestThroughputInvariants:
    @settings(max_examples=40, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), kind=st.sampled_from(KINDS),
           threads=st.integers(min_value=1, max_value=40),
           block_exp=st.integers(min_value=6, max_value=17))
    def test_result_is_self_consistent(self, throughput, scheme, kind,
                                       threads, block_exp):
        result = throughput.bandwidth(scheme, kind,
                                      AccessPattern.RANDOM_BLOCK,
                                      threads=threads,
                                      block_bytes=1 << block_exp)
        assert result.app_bandwidth > 0
        assert result.bus_bandwidth == pytest.approx(
            result.app_bandwidth * kind.traffic_factor)
        assert 0.0 <= result.utilization <= 1.0 + 1e-9
        assert result.loaded_read_ns > 0

    @settings(max_examples=20, deadline=None)
    @given(scheme=st.sampled_from(SCHEMES), kind=st.sampled_from(KINDS))
    def test_bandwidth_below_physical_peak(self, throughput, scheme,
                                           kind):
        """No configuration may exceed the scheme's theoretical DRAM peak."""
        system = throughput.system
        peak = system.scheme_backend(scheme).device.peak_bandwidth
        result = throughput.bandwidth(scheme, kind, threads=32)
        assert result.bus_bandwidth <= peak * (1 + 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(kind=st.sampled_from(KINDS),
           threads=st.integers(min_value=1, max_value=39))
    def test_l8_never_decreases_with_threads(self, throughput, kind,
                                             threads):
        """Plain DRAM has no concurrency pathology: adding a thread never
        loses bandwidth."""
        fewer = throughput.bandwidth(MemoryScheme.DDR5_L8, kind,
                                     threads=threads)
        more = throughput.bandwidth(MemoryScheme.DDR5_L8, kind,
                                    threads=threads + 1)
        assert more.app_bandwidth >= fewer.app_bandwidth * (1 - 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(threads=st.integers(min_value=1, max_value=32),
           block_exp=st.integers(min_value=6, max_value=16))
    def test_random_never_beats_sequential(self, throughput, threads,
                                           block_exp):
        for scheme in SCHEMES:
            random_bw = throughput.bandwidth(
                scheme, AccessKind.LOAD, AccessPattern.RANDOM_BLOCK,
                threads=threads, block_bytes=1 << block_exp)
            seq_bw = throughput.bandwidth(scheme, AccessKind.LOAD,
                                          threads=threads)
            assert random_bw.app_bandwidth <= \
                seq_bw.app_bandwidth * (1 + 1e-9)

    @settings(max_examples=15, deadline=None)
    @given(threads=st.integers(min_value=1, max_value=32))
    def test_copy_routes_bounded_by_d2d(self, throughput, threads):
        """No copy route can beat same-kind D2D at equal threads."""
        d2d = throughput.copy_bandwidth(MemoryScheme.DDR5_L8,
                                        MemoryScheme.DDR5_L8,
                                        threads=threads)
        for src in SCHEMES:
            for dst in (MemoryScheme.DDR5_L8, MemoryScheme.CXL):
                route = throughput.copy_bandwidth(src, dst,
                                                  threads=threads)
                assert route.app_bandwidth <= \
                    d2d.app_bandwidth * (1 + 1e-9)


class TestLatencyInvariants:
    def test_scheme_ordering_holds_for_every_probe(self, latency):
        probes = [latency.flushed_load_ns,
                  latency.flushed_store_writeback_ns,
                  latency.nt_store_ns, latency.pointer_chase_ns,
                  latency.read_path_ns, latency.write_path_ns]
        for probe in probes:
            values = [probe(scheme) for scheme in SCHEMES]
            assert values == sorted(values), probe.__name__

    @settings(max_examples=25, deadline=None)
    @given(wss_exp=st.integers(min_value=14, max_value=33))
    def test_wss_chase_bounded_by_extremes(self, latency, wss_exp):
        """Any WSS chase lies between the L1 hit time and the full-miss
        path."""
        for scheme in SCHEMES:
            value = latency.pointer_chase_ns(scheme, 1 << wss_exp)
            l1 = latency.system.socket.config.cache.l1.latency_ns
            full = latency.pointer_chase_ns(scheme) \
                + latency.system.socket.hierarchy_traversal_ns()
            assert l1 * 0.99 <= value <= full * 1.01

    @settings(max_examples=25, deadline=None)
    @given(wss_exp=st.integers(min_value=14, max_value=32))
    def test_cxl_chase_at_least_l8_chase(self, latency, wss_exp):
        wss = 1 << wss_exp
        assert latency.pointer_chase_ns(MemoryScheme.CXL, wss) >= \
            latency.pointer_chase_ns(MemoryScheme.DDR5_L8, wss) - 1e-9
