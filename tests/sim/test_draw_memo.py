"""The draw memo: a hit must be the cold draw, bit for bit.

``repro.sim.rng.recall``/``remember`` hold each seeded trace a process
draws, keyed by everything the draws read.  For every user — the KV
request sampler (KvServer, the DES reference, workload-D inserts, the
shared-stream ``mean_service_ns``), the cluster's open-loop trace and
its placement — a warm call must return what a cold call returns and
leave every generator and the store exactly where the cold call left
them.  A hit is recognized by identity: the memo hands back the very
array it kept.
"""

from dataclasses import astuple, replace

import numpy as np
import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, KvStore
from repro.cluster import ClusterSim, ClusterTopology, OpenLoopZipfian
from repro.sim import rng as rng_mod
from repro.sim.rng import forget, generator_key, recall, remember
from repro.topology import WeightedInterleave
from repro.workloads import WORKLOADS, ZipfianKeys
from tests.apps.test_kv_fastpath import run_des


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture
def cold():
    """Every test starts (and leaves) the memo empty."""
    forget()
    yield
    forget()


def make_store(system, workload=WORKLOADS["A"], *, num_keys=5_000,
               capacity_keys=None, seed=1):
    policy = WeightedInterleave.from_cxl_fraction(
        system.LOCAL_NODE, system.cxl_node_id, 0.5)
    return KvStore(system, policy, workload=workload, num_keys=num_keys,
                   capacity_keys=capacity_keys,
                   rng=np.random.default_rng(seed))


def state(rng):
    return rng.bit_generator.state


def sample(system, workload=WORKLOADS["A"], *, n=800, grow=True,
           shared=False, key_seed=7, **store_args):
    """One ``sample_requests`` call on a fresh store; returns the
    canonical bytes of the trace and of everything the call left
    behind, and the keys array (whose identity tells a hit from a
    miss)."""
    store = make_store(system, workload, **store_args)
    key_rng = store._rng if shared else np.random.default_rng(key_seed)
    try:
        ops, keys, cpu, misses, miss_ns = store.sample_requests(
            n, key_rng, grow=grow)
        blob = repr((ops, keys.tobytes(), cpu.tobytes(), misses.tobytes(),
                     miss_ns.tobytes(), state(key_rng), state(store._rng),
                     store.num_keys, store.chooser.keyspace))
    finally:
        store.free()
    return blob, keys


class TestMemo:
    def test_remember_freezes_and_recall_returns_the_same_objects(
            self, cold):
        array = np.arange(4)
        stored = remember(("t", 1), (array, [1, 2], "x"))
        assert stored[1] == (1, 2)
        with pytest.raises(ValueError):
            stored[0][0] = 9
        assert recall(("t", 1)) is stored
        assert recall(("t", 2)) is None

    def test_least_recently_used_entries_go_past_the_budget(
            self, cold, monkeypatch):
        monkeypatch.setattr(rng_mod, "MEMO_BYTES", 3_000)
        for name in "abc":
            remember((name,), (np.zeros(100),))          # 800 B each
        assert recall(("a",)) is not None                # a is now newest
        remember(("d",), (np.zeros(100),))
        assert recall(("b",)) is None
        assert all(recall((name,)) is not None for name in "acd")

    def test_a_value_over_the_budget_is_returned_but_not_kept(
            self, cold, monkeypatch):
        monkeypatch.setattr(rng_mod, "MEMO_BYTES", 1_000)
        value = remember(("big",), (np.zeros(1_000),))
        assert not value[0].flags.writeable
        assert recall(("big",)) is None

    def test_generator_key_names_the_future_draws(self):
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        assert generator_key(a) == generator_key(b)
        a.integers(0, 10)                    # a 32-bit buffered draw
        assert generator_key(a) != generator_key(b)
        b.integers(0, 10)
        assert generator_key(a) == generator_key(b)
        assert a.random() == b.random()


class TestKvRequests:
    @pytest.mark.parametrize("workload, grow, shared", [
        (WORKLOADS["A"], True, False),
        (WORKLOADS["D"], True, False),                  # inserts grow
        (WORKLOADS["D"], False, True),                  # mean_service_ns
        (WORKLOADS["B"].with_distribution("zipfian"), True, True),
    ], ids=["A", "D-inserts", "D-shared-stream", "B-zipf-shared"])
    def test_warm_sample_equals_cold(self, system, cold, workload, grow,
                                     shared):
        cold_blob, cold_keys = sample(system, workload, grow=grow,
                                      shared=shared)
        warm_blob, warm_keys = sample(system, workload, grow=grow,
                                      shared=shared)
        assert warm_keys is cold_keys
        assert warm_blob == cold_blob

    def test_inserts_are_replayed_on_a_hit(self, system, cold):
        blob, _ = sample(system, WORKLOADS["D"], n=2_000)
        store = make_store(system, WORKLOADS["D"])
        try:
            store.sample_requests(2_000, np.random.default_rng(7))
            assert store.num_keys > 5_000
            assert store.chooser.keyspace == store.num_keys
            # The next insert appends right after the replayed ones.
            assert store.insert_record() == store.num_keys - 1
        finally:
            store.free()
        assert sample(system, WORKLOADS["D"], n=2_000)[0] == blob

    def test_returned_arrays_are_read_only(self, system, cold):
        store = make_store(system)
        try:
            ops, keys, cpu, misses, miss_ns = store.sample_requests(
                100, np.random.default_rng(7))
        finally:
            store.free()
        assert isinstance(ops, tuple)
        for array in (keys, cpu, misses):
            with pytest.raises(ValueError):
                array[0] = 0
        miss_ns[0] = 0.0                   # placement-dependent, per call

    @pytest.mark.parametrize("runner", ["fast", "des", "des-2w"])
    def test_warm_server_run_equals_cold(self, system, cold, runner):
        def run():
            store = make_store(system, WORKLOADS["D"])
            workers = 2 if runner == "des-2w" else 1
            try:
                if runner == "fast":
                    result = KvServer(store, seed=1).run(40_000.0,
                                                         requests=1_000)
                else:
                    result = run_des(store, 40_000.0, 1_000, seed=1,
                                     workers=workers)
                return repr((astuple(result), store.num_keys,
                             state(store._rng)))
            finally:
                store.free()
        assert run() == run()

    def test_warm_mean_service_equals_cold(self, system, cold):
        def mean():
            store = make_store(system, WORKLOADS["D"])
            try:
                return (store.mean_service_ns(500), state(store._rng),
                        store.num_keys)
            finally:
                store.free()
        first = mean()
        assert len(rng_mod._memo) == 1
        assert mean() == first

    def test_a_change_in_any_key_field_misses(self, system, cold):
        _, base = sample(system)
        assert sample(system)[1] is base                # the hit
        other_rng = make_store(system)
        try:
            other_rng._rng.random()
            moved_own = state(other_rng._rng)
        finally:
            other_rng.free()
        variants = {
            "workload": dict(workload=WORKLOADS["B"]),
            "num_keys": dict(num_keys=5_001),
            "capacity_keys": dict(capacity_keys=5_600),
            "n": dict(n=801),
            "grow": dict(grow=False),
            "shared stream": dict(shared=True),
            "store stream": dict(seed=2),
        }
        for field, change in variants.items():
            assert sample(system, **change)[1] is not base, field
        # Sharing the store's stream differs from a second generator in
        # the same state.
        separate = sample(system, key_seed=1)[1]
        assert sample(system, shared=True)[1] is not separate
        # The key stream's state, the store stream's state given the
        # same seed, the chooser and the cache-hit estimate.
        store = make_store(system)
        try:
            key_rng = np.random.default_rng(7)
            key_rng.random()
            assert store.sample_requests(800, key_rng)[1] is not base
            store._rng.bit_generator.state = moved_own
            assert store.sample_requests(
                800, np.random.default_rng(7))[1] is not base
        finally:
            store.free()
        for tweak in ("chooser", "cache", "num_keys"):
            store = make_store(system)
            try:
                if tweak == "chooser":
                    store.chooser = ZipfianKeys(store.num_keys, 0.9)
                elif tweak == "cache":
                    store._cache_hit_prob += 1e-12
                else:                        # the chooser left as it was
                    store.num_keys += 1
                assert store.sample_requests(
                    800, np.random.default_rng(7))[1] is not base, tweak
            finally:
                store.free()

    def test_a_chooser_differing_only_in_theta_misses(self, system, cold):
        keys = []
        for theta in (0.9, 0.99):
            store = make_store(system)
            store.chooser = ZipfianKeys(store.num_keys, theta)
            try:
                keys.append(store.sample_requests(
                    300, np.random.default_rng(7))[1])
            finally:
                store.free()
        assert keys[0] is not keys[1]


class TestClusterTrace:
    BASE = dict(num_requests=2_000, keyspace=30_000, theta=0.99,
                write_fraction=0.05, seed=4, stream="cluster")

    def test_warm_trace_equals_cold_and_arrivals_follow_the_rate(
            self, cold):
        first = OpenLoopZipfian(qps=1e5, **self.BASE)
        keys = first.keys.tobytes(), first.writes.tobytes()
        other = OpenLoopZipfian(qps=3e5, **self.BASE)
        assert other.keys is first.keys and other.writes is first.writes
        assert (other.keys.tobytes(), other.writes.tobytes()) == keys
        assert other.arrival_ns[-1] < first.arrival_ns[-1]
        forget()
        again = OpenLoopZipfian(qps=3e5, **self.BASE)
        assert again.keys is not first.keys
        assert (again.keys.tobytes(), again.writes.tobytes()) == keys
        assert again.arrival_ns.tobytes() == other.arrival_ns.tobytes()
        with pytest.raises(ValueError):
            again.keys[0] = 0
        with pytest.raises(ValueError):
            again.writes[0] = True

    @pytest.mark.parametrize("field, value", [
        ("num_requests", 2_001), ("keyspace", 30_001), ("theta", 0.9),
        ("write_fraction", 0.5), ("seed", 5), ("stream", "other")])
    def test_a_change_in_any_key_field_misses(self, cold, field, value):
        base = OpenLoopZipfian(qps=1e5, **self.BASE)
        changed = OpenLoopZipfian(qps=1e5,
                                  **{**self.BASE, field: value})
        assert changed.keys is not base.keys
        assert changed.writes is not base.writes


class TestPlacement:
    def place(self, *, hosts=3, keys_per_host=10_000, pool_share=0.5,
              seed=9, trace_seed=9):
        topo = ClusterTopology(hosts, keys_per_host=keys_per_host,
                               pool_share=pool_share)
        keys = OpenLoopZipfian(qps=1e5, num_requests=2_000,
                               keyspace=30_000, seed=trace_seed).keys
        return ClusterSim(topo, seed=seed).placement(keys)

    def test_warm_placement_equals_cold(self, cold):
        owners, residents = self.place()
        blob = owners.tobytes(), residents.tobytes()
        assert self.place()[0] is owners
        forget()
        again = self.place()
        assert again[0] is not owners
        assert (again[0].tobytes(), again[1].tobytes()) == blob
        for array in again:
            with pytest.raises(ValueError):
                array[0] = 0

    @pytest.mark.parametrize("change", [
        dict(seed=10), dict(hosts=6, keys_per_host=5_000),
        dict(keys_per_host=10_001), dict(pool_share=0.25),
        dict(trace_seed=10)], ids=["seed", "hosts", "keys_per_host",
                                   "pool_fraction", "key_trace"])
    def test_a_change_in_any_key_field_misses(self, cold, change):
        base = self.place()
        assert self.place(**change)[0] is not base[0]

    def test_keys_with_the_same_bytes_in_another_dtype_miss(self, cold):
        sim = ClusterSim(ClusterTopology(3, keys_per_host=10_000), seed=9)
        wide = sim.placement(np.array([1, 2], dtype=np.int64))
        narrow = sim.placement(np.array([1, 0, 2, 0], dtype=np.int32))
        assert narrow[0].tolist() == [0, 0, 0, 0]
        assert len(wide[0]) == 2


def test_frozen_dataclass_workloads_key_by_value(system, cold):
    """A workload equal by value (as a pickled one is) hits."""
    _, keys = sample(system, WORKLOADS["B"])
    assert sample(system, replace(WORKLOADS["B"]))[1] is keys
