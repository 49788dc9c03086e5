"""The latency model must reproduce the paper's §4.2 ratios."""

import pytest

from repro import build_system, combined_testbed, units
from repro.cache import SetAssociativeCache
from repro.cpu import AccessKind, MemoryScheme
from repro.errors import ConfigError
from repro.perfmodel import LatencyModel


@pytest.fixture(scope="module")
def model() -> LatencyModel:
    return LatencyModel(build_system(combined_testbed()))


class TestFlushedProbes:
    def test_cxl_load_about_2_2x_of_l8(self, model):
        """§4.2: 'CXL memory access latency is about 2.2x higher than
        the 8-channel local-socket-DDR5'."""
        ratio = (model.flushed_load_ns(MemoryScheme.CXL)
                 / model.flushed_load_ns(MemoryScheme.DDR5_L8))
        assert ratio == pytest.approx(2.2, abs=0.35)

    def test_r1_load_between_1x_and_2_5x_of_l8(self, model):
        ratio = (model.flushed_load_ns(MemoryScheme.DDR5_R1)
                 / model.flushed_load_ns(MemoryScheme.DDR5_L8))
        assert 1.0 < ratio < 2.5

    def test_ordering_l8_r1_cxl(self, model):
        for probe in (model.flushed_load_ns,
                      model.flushed_store_writeback_ns,
                      model.nt_store_ns):
            values = [probe(s) for s in (MemoryScheme.DDR5_L8,
                                         MemoryScheme.DDR5_R1,
                                         MemoryScheme.CXL)]
            assert values[0] < values[1] < values[2]

    def test_nt_store_notably_below_st_wb_on_cxl(self, model):
        """§4.2: nt-store+sfence has notably lower latency than st+clwb
        because of RFO."""
        nt = model.nt_store_ns(MemoryScheme.CXL)
        st = model.flushed_store_writeback_ns(MemoryScheme.CXL)
        assert st > 1.8 * nt

    def test_cxl_latencies_are_hundreds_of_ns(self, model):
        """§5.1: 'CXL memory access latency ranges from hundreds to one
        thousand nano-second'."""
        for probe in (model.flushed_load_ns,
                      model.flushed_store_writeback_ns,
                      model.nt_store_ns):
            value = probe(MemoryScheme.CXL)
            assert 200.0 <= value <= 1000.0

    def test_probe_dispatch(self, model):
        assert model.probe_ns(MemoryScheme.CXL, AccessKind.LOAD) == \
            model.flushed_load_ns(MemoryScheme.CXL)
        assert model.probe_ns(MemoryScheme.CXL, AccessKind.STORE) == \
            model.flushed_store_writeback_ns(MemoryScheme.CXL)
        with pytest.raises(ConfigError):
            model.probe_ns(MemoryScheme.CXL, AccessKind.MOVDIR64B)

    def test_flushed_load_exceeds_plain_read_path(self, model):
        """The flushed-line coherence handshake is visible (§4.2, [31])."""
        assert (model.flushed_load_ns(MemoryScheme.DDR5_L8)
                > model.read_path_ns(MemoryScheme.DDR5_L8))


class TestPointerChase:
    def test_cxl_chase_3_7x_of_l8(self, model):
        """§4.2: 'pointer chasing in CXL memory has 3.7x higher latency
        than that of DDR5-L8'."""
        ratio = (model.pointer_chase_ns(MemoryScheme.CXL)
                 / model.pointer_chase_ns(MemoryScheme.DDR5_L8))
        assert ratio == pytest.approx(3.7, abs=0.45)

    def test_cxl_chase_2_2x_of_r1(self, model):
        """§4.2: 'The pointer chasing latency on CXL memory is 2.2x
        higher than that of DDR5-R1 accesses'."""
        ratio = (model.pointer_chase_ns(MemoryScheme.CXL)
                 / model.pointer_chase_ns(MemoryScheme.DDR5_R1))
        assert ratio == pytest.approx(2.2, abs=0.3)

    def test_chase_below_flushed_load(self, model):
        """Pointer chasing skips the flushed-line handshake."""
        for scheme in MemoryScheme:
            assert (model.pointer_chase_ns(scheme)
                    < model.flushed_load_ns(scheme))


class TestPrefetchToggle:
    """MEMO's prefetch knob (§4.1): huge for streams, useless for chains."""

    def test_prefetch_hides_most_sequential_latency(self, model):
        for scheme in MemoryScheme:
            prefetched = model.prefetched_sequential_read_ns(scheme)
            demand = model.read_path_ns(scheme)
            assert prefetched < 0.4 * demand

    def test_prefetch_gain_larger_on_cxl(self, model):
        """The slower the memory, the more a covered line saves."""
        cxl_saving = (model.read_path_ns(MemoryScheme.CXL)
                      - model.prefetched_sequential_read_ns(
                          MemoryScheme.CXL))
        l8_saving = (model.read_path_ns(MemoryScheme.DDR5_L8)
                     - model.prefetched_sequential_read_ns(
                         MemoryScheme.DDR5_L8))
        assert cxl_saving > 2 * l8_saving

    def test_chase_unaffected_by_prefetch_by_construction(self, model):
        """pointer_chase_ns *is* the prefetch-off number — dependent
        chains defeat stride detection, so there is no "with prefetch"
        variant to model (Fig 2 disables prefetch for exactly this
        measurement)."""
        assert (model.pointer_chase_ns(MemoryScheme.CXL)
                == model.read_path_ns(MemoryScheme.CXL))


class TestWssStaircase:
    def test_small_wss_hides_scheme_differences(self, model):
        """Inside L1, the backing memory is irrelevant."""
        l8 = model.pointer_chase_ns(MemoryScheme.DDR5_L8, units.kib(16))
        cxl = model.pointer_chase_ns(MemoryScheme.CXL, units.kib(16))
        assert cxl == pytest.approx(l8, rel=0.02)

    def test_large_wss_recovers_full_chase(self, model):
        big = model.pointer_chase_ns(MemoryScheme.CXL, units.gib(4))
        flat = model.pointer_chase_ns(MemoryScheme.CXL)
        assert big == pytest.approx(flat, rel=0.1)

    def test_staircase_is_monotone(self, model):
        sizes = [units.kib(16), units.kib(512), units.mib(16),
                 units.mib(128), units.gib(1)]
        for scheme in MemoryScheme:
            values = [model.pointer_chase_ns(scheme, s) for s in sizes]
            assert values == sorted(values)

    def test_schemes_diverge_beyond_llc(self, model):
        """The staircase splits only after the 105 MB LLC (Fig 2 right)."""
        beyond = units.gib(1)
        l8 = model.pointer_chase_ns(MemoryScheme.DDR5_L8, beyond)
        cxl = model.pointer_chase_ns(MemoryScheme.CXL, beyond)
        assert cxl > 2.5 * l8


FIG2_WSS_POINTS = {
    "fast": [64 * units.KIB, 1 * units.MIB, 16 * units.MIB,
             128 * units.MIB, 1024 * units.MIB],
    "full": [2 ** e * units.KIB for e in range(4, 21)],
}


class TestStaircaseFromConfig:
    """``pointer_chase_ns`` computes the staircase from the cache config:
    the functional hierarchy's floats, without building one."""

    @pytest.mark.parametrize("mode", sorted(FIG2_WSS_POINTS))
    def test_equals_the_hierarchy_and_builds_no_cache(self, model, mode,
                                                      monkeypatch):
        points = FIG2_WSS_POINTS[mode]
        hierarchy = model.system.socket.new_hierarchy()
        expected = {
            (scheme, wss): hierarchy.expected_latency_ns(
                wss, model.memory_side_ns(scheme))
            for scheme in model.system.available_schemes()
            for wss in points}

        built = []
        init = SetAssociativeCache.__init__

        def counted(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SetAssociativeCache, "__init__", counted)
        for (scheme, wss), value in expected.items():
            assert model.pointer_chase_ns(scheme, wss) == value
        assert built == []
        assert len(expected) == 3 * len(points)
