"""DSA model: descriptors, WQs, engines, and the Fig-4b trends."""

import pytest

from repro import build_system, combined_testbed
from repro.cpu import MemoryScheme
from repro.errors import DeviceError
from repro.dsa import (
    BatchDescriptor,
    Descriptor,
    DsaDevice,
    DsaOpcode,
    ProcessingEngine,
    SubmissionMode,
)
from repro.dsa.descriptor import memmove

L8, CXL = MemoryScheme.DDR5_L8, MemoryScheme.CXL


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture(scope="module")
def dsa(system):
    return DsaDevice(system)


class TestDescriptors:
    def test_memmove_accounting(self):
        descriptor = memmove(4096, L8, CXL)
        assert descriptor.reads_bytes == 4096
        assert descriptor.writes_bytes == 4096

    def test_fill_has_no_source(self):
        descriptor = Descriptor(DsaOpcode.MEMFILL, 4096, None, CXL)
        assert descriptor.reads_bytes == 0
        assert descriptor.writes_bytes == 4096

    def test_compare_writes_nothing(self):
        descriptor = Descriptor(DsaOpcode.COMPARE, 4096, L8, CXL)
        assert descriptor.writes_bytes == 0

    def test_memmove_requires_source(self):
        with pytest.raises(DeviceError):
            Descriptor(DsaOpcode.MEMMOVE, 4096, None, CXL)

    def test_zero_size_rejected(self):
        with pytest.raises(DeviceError):
            memmove(0, L8, CXL)

    def test_batch_totals(self):
        batch = BatchDescriptor(tuple(memmove(4096, L8, CXL)
                                      for _ in range(16)))
        assert batch.size == 16
        assert batch.total_bytes == 16 * 4096

    def test_empty_batch_rejected(self):
        with pytest.raises(DeviceError):
            BatchDescriptor(())


class TestEngine:
    def test_bigger_descriptors_take_longer(self, system):
        engine = ProcessingEngine(system)
        small = engine.service_ns(memmove(4096, L8, CXL))
        large = engine.service_ns(memmove(65536, L8, CXL))
        assert large > small

    def test_batch_service_is_sum(self, system):
        engine = ProcessingEngine(system)
        one = engine.service_ns(memmove(4096, L8, CXL))
        batch = engine.service_ns(BatchDescriptor(tuple(
            memmove(4096, L8, CXL) for _ in range(8))))
        assert batch == pytest.approx(8 * one)

    def test_c2d_rate_exceeds_d2c(self, system):
        """§4.3.1: C2D is faster 'due to lower write latency on DRAM'."""
        engine = ProcessingEngine(system)
        assert engine.move_rate(CXL, L8) > engine.move_rate(L8, CXL)

    def test_same_device_copy_is_slowest(self, system):
        engine = ProcessingEngine(system)
        c2c = engine.move_rate(CXL, CXL)
        assert c2c < engine.move_rate(L8, CXL)
        assert c2c < engine.move_rate(CXL, L8)

    def test_d2d_is_engine_bound(self, system):
        engine = ProcessingEngine(system)
        from repro.dsa.engine import ENGINE_PEAK_BW
        assert engine.move_rate(L8, L8) == pytest.approx(ENGINE_PEAK_BW)


class TestDeviceThroughput:
    def test_async_beats_sync(self, dsa):
        """Fig 4b: 'any level of asynchronicity or batching brings
        improvements'."""
        sync = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC)
        async_ = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.ASYNC)
        assert async_ > 1.5 * sync

    def test_batching_amortizes_offload(self, dsa):
        b1 = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC,
                                 batch_size=1)
        b16 = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC,
                                  batch_size=16)
        b128 = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC,
                                   batch_size=128)
        assert b1 < b16 < b128

    def test_async_batched_hits_memory_ceiling(self, dsa, system):
        engine = ProcessingEngine(system)
        # Large transfers amortize the per-descriptor setup away.
        throughput = dsa.copy_throughput(L8, CXL,
                                         mode=SubmissionMode.ASYNC,
                                         batch_size=128,
                                         transfer_bytes=65536)
        ceiling = engine.move_rate(L8, CXL)
        assert throughput == pytest.approx(ceiling, rel=0.05)
        assert throughput <= ceiling

    def test_split_locations_beat_c2c(self, dsa):
        """Fig 4b: 'splitting the source and destination data locations
        yields higher throughput than exclusively using CXL'."""
        c2c = dsa.copy_throughput(CXL, CXL, mode=SubmissionMode.ASYNC,
                                  batch_size=128)
        d2c = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.ASYNC,
                                  batch_size=128)
        c2d = dsa.copy_throughput(CXL, L8, mode=SubmissionMode.ASYNC,
                                  batch_size=128)
        assert d2c > c2c
        assert c2d > c2c

    def test_c2d_beats_d2c(self, dsa):
        d2c = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.ASYNC,
                                  batch_size=128)
        c2d = dsa.copy_throughput(CXL, L8, mode=SubmissionMode.ASYNC,
                                  batch_size=128)
        assert c2d > d2c

    def test_sync_unbatched_comparable_to_cpu_memcpy(self, dsa, system):
        """Fig 4b: 'a non-batched synchronous offload to Intel DSA
        matches the throughput of non-offloaded memory copying'."""
        from repro.perfmodel import ThroughputModel
        memcpy = ThroughputModel(system).memcpy_bandwidth(L8, CXL).app_bandwidth
        sync = dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC,
                                   batch_size=1, transfer_bytes=8192)
        assert sync == pytest.approx(memcpy, rel=0.5)

    def test_copy_latency_includes_offload(self, dsa, system):
        from repro.dsa.device import OFFLOAD_LATENCY_NS
        assert dsa.copy_latency_ns(L8, CXL) > OFFLOAD_LATENCY_NS

    def test_zero_batch_rejected(self, dsa):
        with pytest.raises(DeviceError):
            dsa.copy_throughput(L8, CXL, mode=SubmissionMode.SYNC,
                                batch_size=0)
