"""Redis-YCSB study: placement, service model, DES server, Fig 6/7 shapes."""

import hashlib

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, KvStore, RedisYcsbStudy
from repro.errors import WorkloadError
from repro.topology import Membind
from repro.workloads import WORKLOADS, Operation


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture(scope="module")
def study(system):
    # 200k x ~1.2 KiB records: the keyspace dwarfs the LLC, as in the
    # paper's setup (uniform requests "ensuring maximal stress on the
    # memory").
    return RedisYcsbStudy(system, num_keys=200_000)


class TestStorePlacement:
    def test_membind_dram(self, study):
        store = study.build_store(WORKLOADS["A"], 0.0)
        assert store.cxl_resident_fraction() == 0.0

    def test_membind_cxl(self, study):
        store = study.build_store(WORKLOADS["A"], 1.0)
        assert store.cxl_resident_fraction() == 1.0

    def test_half_interleave(self, study):
        store = study.build_store(WORKLOADS["A"], 0.5)
        assert store.cxl_resident_fraction() == pytest.approx(0.5, abs=0.01)

    def test_paper_ratio_3_23(self, study):
        store = study.build_store(WORKLOADS["A"], 1 / 31)
        assert store.cxl_resident_fraction() == pytest.approx(0.0323,
                                                              abs=0.002)

    def test_bad_fraction_rejected(self, study):
        with pytest.raises(WorkloadError):
            study.policy_for_fraction(1.5)

    def test_record_node_mix_sums_to_one(self, study):
        store = study.build_store(WORKLOADS["A"], 0.5)
        mix = store.record_node_mix(123)
        assert sum(mix.values()) == pytest.approx(1.0)


# sha256 of the float64 bytes of (a) the per-key miss latency over the
# whole 220 000-key capacity and (b) miss_node_split on every 7th of the
# first 200 000 keys, recorded from the former vectorized whole-keyspace
# table.  The per-key memo must reproduce both bit for bit.
MISS_LATENCY_SHA256 = {
    0.0: ("fb01b88a3a114a04c69762c102db516ba3fd70bdbfb9955bb1c6f9a419ac9345",
          "8b8895f9a9b17582ebd7b160c53ec1fc7687da754a755ba28c9930da090a01fe"),
    1 / 31: ("049bdc9c499c1ad2e4e3b7b2bba290ec111e575880147d8b0e6be48b0454d9ca",
             "963b04b253d77757bb066bb8ded2e81ecb95e67c8f99a16da033163daf4699ec"),
    0.1: ("52686bfaf8d78b28e27e5aed53fbe3315dce93156d929d89b32c50b8e734162c",
          "8b5be0cafa573d2a6b7692dce6c63b4507a2da83b865a2b19691e9817bfd4a04"),
    0.5: ("b7aac890b05d3b2bef181b060092fe61dd7ca6d6003880162ad334018af20ba4",
          "545933190270b3857ed32e4f357086fd8c7e6a33fce8c59cd478bc8ebf83f33e"),
    1.0: ("4aa3dcfd492b0913c23b6719b10ecd493e3bd2470fd6df4ba2dc2147255c156e",
          "80c0f0f14b0ed4b8996e64dec17a53340ca54ff0f120ef8e291d2939c3c42629"),
}


def _sha256(values) -> str:
    return hashlib.sha256(
        np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


class TestMissLatencyPinned:
    @pytest.mark.parametrize("fraction", sorted(MISS_LATENCY_SHA256))
    def test_per_key_values_match_the_pinned_table(self, system, study,
                                                   fraction):
        # The study's stores hold 200 000 keys in 220 000 keys of
        # capacity; a store with the same capacity fully populated has
        # the same page map, so every capacity key can be queried.
        capacity = int(study.num_keys * 1.1)
        store = KvStore(system, study.policy_for_fraction(fraction),
                        workload=WORKLOADS["A"], num_keys=capacity,
                        capacity_keys=capacity)
        try:
            latency, split = MISS_LATENCY_SHA256[fraction]
            assert _sha256([store.average_miss_latency_ns(key)
                            for key in range(capacity)]) == latency
            assert _sha256([store.miss_node_split(key) for key in
                            range(0, study.num_keys, 7)]) == split
        finally:
            store.free()

    @pytest.mark.parametrize("fraction", sorted(MISS_LATENCY_SHA256))
    def test_batched_values_match_the_pinned_table(self, system, study,
                                                   fraction):
        capacity = int(study.num_keys * 1.1)
        store = KvStore(system, study.policy_for_fraction(fraction),
                        workload=WORKLOADS["A"], num_keys=capacity,
                        capacity_keys=capacity)
        try:
            keys = np.arange(capacity)
            assert _sha256(store.miss_latencies_ns(keys)) == \
                MISS_LATENCY_SHA256[fraction][0]
            # Shuffled, repeated keys come back in request order.
            shuffled = np.random.default_rng(3).integers(0, capacity, 5000)
            assert store.miss_latencies_ns(shuffled).tolist() == [
                store.average_miss_latency_ns(int(key))
                for key in shuffled]
        finally:
            store.free()

    def test_split_sums_to_the_miss_latency(self, study):
        store = study.build_store(WORKLOADS["A"], 0.5)
        try:
            for key in (0, 3, 123, 199_999):
                dram, cxl = store.miss_node_split(key)
                assert dram + cxl == store.average_miss_latency_ns(key)
        finally:
            store.free()

    def test_out_of_range_key_rejected(self, study):
        store = study.build_store(WORKLOADS["A"], 0.5)
        try:
            with pytest.raises(WorkloadError):
                store.average_miss_latency_ns(study.num_keys)
            with pytest.raises(WorkloadError):
                store.miss_node_split(-1)
            for bad in (study.num_keys, -1):
                with pytest.raises(WorkloadError, match=f"key {bad} "):
                    store.miss_latencies_ns(np.array([0, 5, bad, 7]))
        finally:
            store.free()


class TestServiceModel:
    def test_cxl_queries_slower(self, study):
        dram = study.build_store(WORKLOADS["A"], 0.0)
        cxl = study.build_store(WORKLOADS["A"], 1.0)
        assert cxl.mean_service_ns() > dram.mean_service_ns()

    def test_interleave_between_extremes(self, study):
        dram = study.build_store(WORKLOADS["A"], 0.0).mean_service_ns()
        half = study.build_store(WORKLOADS["A"], 0.5).mean_service_ns()
        cxl = study.build_store(WORKLOADS["A"], 1.0).mean_service_ns()
        assert dram < half < cxl

    def test_updates_cost_more_than_reads(self, system):
        store = KvStore(system, Membind(0), workload=WORKLOADS["A"],
                        num_keys=10_000, rng=np.random.default_rng(0))
        try:
            ops, _, cpu, misses, miss_ns = store.sample_requests(
                1000, np.random.default_rng(1))
        finally:
            store.free()
        service = cpu + misses * miss_ns
        update = np.array([op is Operation.UPDATE for op in ops])
        assert 0 < update.sum() < len(ops)
        reads = service[~update].mean()
        updates = service[update].mean()
        assert updates > reads

    def test_latest_distribution_caches_better(self, study):
        """Fig 7 D-variants: lat > zipf > uni in cache friendliness."""
        d = WORKLOADS["D"]
        hit = {dist: study.build_store(d.with_distribution(dist),
                                       1.0).cache_hit_prob
               for dist in ("latest", "zipfian", "uniform")}
        assert hit["latest"] >= hit["zipfian"] > hit["uniform"]

    def test_out_of_range_key_rejected(self, study):
        store = study.build_store(WORKLOADS["A"], 0.0)
        with pytest.raises(WorkloadError):
            store.record_offset(10**9)


class TestBatchedSampler:
    def test_inserts_grow_the_keyspace_only_when_asked(self, system):
        for grow, added in ((True, True), (False, False)):
            store = KvStore(system, Membind(0), workload=WORKLOADS["D"],
                            num_keys=1000, capacity_keys=1200,
                            rng=np.random.default_rng(0))
            try:
                ops, keys, *_ = store.sample_requests(
                    400, np.random.default_rng(1), grow=grow)
                inserts = [key for op, key in zip(ops, keys.tolist())
                           if op is Operation.INSERT]
                assert inserts
                assert (store.num_keys > 1000) is added
                if grow:
                    # Each insert appends the next record's key.
                    assert inserts == list(range(1000, store.num_keys))
            finally:
                store.free()

    def test_hit_and_mutation_factors(self, system):
        """Every sampled miss count is the miss jitter times the
        mutation factor times the cache-hit factor, in that order."""
        store = KvStore(system, Membind(0), workload=WORKLOADS["F"],
                        num_keys=10_000, rng=np.random.default_rng(0))
        try:
            ops, _, _, misses, _ = store.sample_requests(
                2000, np.random.default_rng(1))
        finally:
            store.free()
        rng = np.random.default_rng(0)
        for op, sampled in zip(ops, misses.tolist()):
            rng.lognormal(0.0, 0.12)
            expected = 20.0 * rng.lognormal(0.0, 0.5)
            if op is Operation.READ_MODIFY_WRITE:
                expected *= 1.15
            if rng.random() < store.cache_hit_prob:
                expected *= 0.1
            assert sampled == expected


class TestInputChecks:
    """Bad run and sampling inputs fail up front, naming the field."""

    @pytest.fixture
    def server(self, system):
        store = KvStore(system, Membind(0), workload=WORKLOADS["A"],
                        num_keys=1000, rng=np.random.default_rng(0))
        yield KvServer(store)
        store.free()

    @pytest.mark.parametrize("qps", [float("nan"), float("inf"), 0.0,
                                     -5.0])
    def test_bad_qps_rejected(self, server, qps):
        with pytest.raises(WorkloadError, match="target_qps"):
            server.run(qps, requests=100)

    @pytest.mark.parametrize("requests", [2.5, True, 0, -3, 100.0])
    def test_bad_request_count_rejected(self, server, requests):
        with pytest.raises(WorkloadError, match="requests"):
            server.run(1e5, requests=requests)

    @pytest.mark.parametrize("samples", [2.5, True, 0, float("nan")])
    def test_bad_sample_count_rejected(self, server, samples):
        with pytest.raises(WorkloadError, match="samples"):
            server.store.mean_service_ns(samples)

    def test_numpy_integer_counts_accepted(self, server):
        assert server.run(1e4, requests=np.int64(50)).requests == 50
        assert server.store.mean_service_ns(np.int32(10)) > 0


class TestMaxQps:
    """Fig 7 anchors: ~80k DRAM, ~65k at 50%, ~55k pure CXL."""

    def test_dram_near_80k(self, study):
        qps = study.max_qps(WORKLOADS["A"], 0.0)
        assert qps == pytest.approx(80_000, rel=0.08)

    def test_pure_cxl_near_55k(self, study):
        qps = study.max_qps(WORKLOADS["A"], 1.0)
        assert qps == pytest.approx(55_000, rel=0.08)

    def test_half_cxl_near_65k(self, study):
        qps = study.max_qps(WORKLOADS["A"], 0.5)
        assert qps == pytest.approx(65_000, rel=0.08)

    def test_less_cxl_more_qps(self, study):
        """Fig 7: 'having less memory allocated to CXL memory delivers a
        higher max QPS across all tested workloads'."""
        for name in ("A", "B", "C"):
            workload = WORKLOADS[name]
            values = [study.max_qps(workload, f)
                      for f in (1.0, 0.5, 0.1, 1 / 31, 0.0)]
            assert values == sorted(values)

    def test_nothing_beats_pure_dram(self, study):
        """'none of which can surpass the performance of running Redis
        purely on DRAM'."""
        dram = study.max_qps(WORKLOADS["A"], 0.0)
        for fraction in (1 / 31, 0.1, 0.5, 1.0):
            assert study.max_qps(WORKLOADS["A"], fraction) < dram

    def test_d_lat_beats_zipf_beats_uni(self, study):
        d = WORKLOADS["D"]
        lat = study.max_qps(d.with_distribution("latest"), 1.0)
        zipf = study.max_qps(d.with_distribution("zipfian"), 1.0)
        uni = study.max_qps(d.with_distribution("uniform"), 1.0)
        assert lat > zipf > uni

    def test_fig7_table_structure(self, study):
        table = study.max_qps_table(cxl_fractions=[0.0, 1.0],
                                    workload_names=["A", "D"])
        assert set(table) == {"A", "D-lat", "D-zipf", "D-uni"}


class TestDesServer:
    def test_p99_gap_at_low_qps(self, study):
        """Fig 6: 'a significant gap in p99 tail latency at low QPS
        (20k) when Redis runs purely on CXL memory' (~2x)."""
        dram = study.p99_point(WORKLOADS["A"], 0.0, 20_000,
                               requests=6000)
        cxl = study.p99_point(WORKLOADS["A"], 1.0, 20_000,
                              requests=6000)
        assert 1.5 <= cxl.p99_ns / dram.p99_ns <= 3.5

    def test_half_cxl_p99_between(self, study):
        """Fig 6: 50% CXL p99 sits between pure DRAM and pure CXL."""
        results = {f: study.p99_point(WORKLOADS["A"], f, 30_000,
                                      requests=6000).p99_ns
                   for f in (0.0, 0.5, 1.0)}
        assert results[0.0] < results[0.5] < results[1.0]

    def test_cxl_saturates_before_dram(self, study):
        """Fig 6: CXL Redis cannot reach the QPS DRAM Redis sustains."""
        qps = 70_000
        dram = study.p99_point(WORKLOADS["A"], 0.0, qps, requests=8000)
        cxl = study.p99_point(WORKLOADS["A"], 1.0, qps, requests=8000)
        assert cxl.p99_ns > 3 * dram.p99_ns

    def test_des_validates_analytic_capacity(self, study):
        """The DES server keeps up just below the analytic max QPS and
        falls behind just above it."""
        capacity = study.max_qps(WORKLOADS["A"], 1.0)
        below = study.p99_point(WORKLOADS["A"], 1.0, capacity * 0.85,
                                requests=8000)
        above = study.p99_point(WORKLOADS["A"], 1.0, capacity * 1.3,
                                requests=8000)
        assert not below.saturated
        assert above.saturated or above.p99_ns > 10 * below.p99_ns

    def test_invalid_qps_rejected(self, study):
        with pytest.raises(WorkloadError):
            study.p99_point(WORKLOADS["A"], 0.0, 0.0)

    def test_achieved_tracks_target_under_capacity(self, study):
        result = study.p99_point(WORKLOADS["A"], 0.0, 10_000,
                                 requests=4000)
        assert result.achieved_qps == pytest.approx(10_000, rel=0.1)


class TestInserts:
    """Workload D's 5% inserts grow the keyspace during the run."""

    def test_insert_grows_keyspace(self, system):
        store = KvStore(system, Membind(0), workload=WORKLOADS["D"],
                        num_keys=1000, capacity_keys=1100,
                        rng=np.random.default_rng(0))
        try:
            key = store.insert_record()
            assert key == 1000
            assert store.num_keys == 1001
            store.record_offset(key)          # addressable now
        finally:
            store.free()

    def test_capacity_exhaustion_raises(self, system):
        store = KvStore(system, Membind(0), workload=WORKLOADS["D"],
                        num_keys=10, capacity_keys=11,
                        rng=np.random.default_rng(0))
        try:
            store.insert_record()
            with pytest.raises(WorkloadError):
                store.insert_record()
        finally:
            store.free()

    def test_capacity_below_keys_rejected(self, system):
        with pytest.raises(WorkloadError):
            KvStore(system, Membind(0), workload=WORKLOADS["D"],
                    num_keys=10, capacity_keys=5)

    def test_workload_d_run_performs_inserts(self, system):
        store = KvStore(system, Membind(0), workload=WORKLOADS["D"],
                        num_keys=20_000,
                        rng=np.random.default_rng(0))
        try:
            KvServer(store).run(30_000, requests=4000)
            # ~5% of 4000 operations inserted new records.
            inserted = store.num_keys - 20_000
            assert inserted == pytest.approx(200, abs=60)
        finally:
            store.free()

    def test_latest_reads_follow_the_inserts(self, system):
        """After a D run, the chooser favors the newly inserted tail."""
        store = KvStore(system, Membind(0), workload=WORKLOADS["D"],
                        num_keys=20_000,
                        rng=np.random.default_rng(0))
        try:
            KvServer(store).run(30_000, requests=4000)
            rng = np.random.default_rng(1)
            keys = [store.chooser.next_key(rng) for _ in range(500)]
            assert np.median(keys) > 0.9 * store.num_keys
        finally:
            store.free()


class TestMemcachedVariant:
    """§6.1: memcached (threaded) is latency-bound just like Redis."""

    def run_with_workers(self, study, fraction, qps, workers,
                         requests=5000):
        store = study.build_store(WORKLOADS["A"], fraction)
        try:
            return KvServer(store, workers=workers).run(
                qps, requests=requests)
        finally:
            store.free()

    def test_workers_raise_saturation(self, study):
        """Four workers keep up where one thread drowns."""
        qps = 150_000
        one = self.run_with_workers(study, 0.0, qps, workers=1)
        four = self.run_with_workers(study, 0.0, qps, workers=4)
        assert four.achieved_qps > one.achieved_qps

    def test_cxl_penalty_survives_threading(self):
        """More workers do not shrink the per-query CXL latency gap —
        the §6.1 latency-bound signature."""
        from repro import build_system, combined_testbed
        study = RedisYcsbStudy(build_system(combined_testbed()),
                               num_keys=200_000)
        dram = self.run_with_workers(study, 0.0, 30_000, workers=4)
        cxl = self.run_with_workers(study, 1.0, 30_000, workers=4)
        assert cxl.mean_service_ns > 1.3 * dram.mean_service_ns

    def test_zero_workers_rejected(self, study):
        store = study.build_store(WORKLOADS["A"], 0.0)
        try:
            with pytest.raises(WorkloadError):
                KvServer(store, workers=0)
        finally:
            store.free()
