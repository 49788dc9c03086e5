"""Property tests for the open-loop zipfian generator.

The two contracts the cluster experiments lean on:

* the drawn key stream really is zipfian — rank frequencies decay with
  rank and sharpen with ``theta``;
* the trace is a pure function of ``(seed, stream, parameters)`` —
  same inputs, byte-identical arrays; different seeds, different draws.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import OpenLoopZipfian
from repro.errors import ClusterError
from repro.sim.rng import substream
from repro.workloads.distributions import ZipfianKeys

thetas = st.floats(min_value=0.3, max_value=0.99,
                   allow_nan=False, allow_infinity=False)
seeds = st.integers(min_value=0, max_value=2**31 - 1)


class TestZipfianShape:
    @settings(max_examples=20, deadline=None)
    @given(theta=thetas, seed=seeds)
    def test_rank_frequencies_decay_with_rank(self, theta, seed):
        chooser = ZipfianKeys(1000, theta)
        rng = substream("prop/ranks", seed)
        ranks = np.fromiter((chooser.next_rank(rng)
                             for _ in range(4000)), dtype=np.int64)
        top = np.count_nonzero(ranks < 10)
        mid = np.count_nonzero((ranks >= 450) & (ranks < 460))
        # 10 hottest ranks always beat 10 middling ranks, any skew.
        assert top > mid

    @settings(max_examples=10, deadline=None)
    @given(seed=seeds)
    def test_higher_theta_concentrates_mass_on_hot_ranks(self, seed):
        draws = {}
        for theta in (0.5, 0.99):
            chooser = ZipfianKeys(1000, theta)
            rng = substream("prop/skew", seed)
            ranks = np.fromiter((chooser.next_rank(rng)
                                 for _ in range(4000)), dtype=np.int64)
            draws[theta] = np.count_nonzero(ranks < 10) / 4000
        assert draws[0.99] > draws[0.5]

    @settings(max_examples=10, deadline=None)
    @given(theta=thetas, seed=seeds)
    def test_rank_frequency_tracks_the_analytic_hot_mass(self, theta, seed):
        keyspace = 1000
        chooser = ZipfianKeys(keyspace, theta)
        rng = substream("prop/mass", seed)
        n = 6000
        ranks = np.fromiter((chooser.next_rank(rng)
                             for _ in range(n)), dtype=np.int64)
        hot = 50
        expected = chooser.hot_mass(hot)
        observed = np.count_nonzero(ranks < hot) / n
        assert observed == pytest.approx(expected, abs=0.05)


class TestTraceDeterminism:
    @settings(max_examples=15, deadline=None)
    @given(seed=seeds)
    def test_same_seed_is_byte_identical(self, seed):
        def trace():
            return OpenLoopZipfian(qps=100_000.0, num_requests=300,
                                   keyspace=10_000, seed=seed)
        a, b = trace(), trace()
        assert np.array_equal(a.arrival_ns, b.arrival_ns)
        assert np.array_equal(a.keys, b.keys)
        assert np.array_equal(a.writes, b.writes)

    def test_different_seeds_differ(self):
        a = OpenLoopZipfian(qps=100_000.0, num_requests=300,
                            keyspace=10_000, seed=1)
        b = OpenLoopZipfian(qps=100_000.0, num_requests=300,
                            keyspace=10_000, seed=2)
        assert not np.array_equal(a.keys, b.keys)

    def test_streams_are_independent(self):
        # Arrival gaps must not share draws with keys or write flags:
        # changing the write fraction cannot move an arrival.
        a = OpenLoopZipfian(qps=100_000.0, num_requests=300,
                            keyspace=10_000, seed=1, write_fraction=0.0)
        b = OpenLoopZipfian(qps=100_000.0, num_requests=300,
                            keyspace=10_000, seed=1, write_fraction=0.5)
        assert np.array_equal(a.arrival_ns, b.arrival_ns)
        assert np.array_equal(a.keys, b.keys)


class TestTraceShape:
    def test_arrivals_are_monotone_and_open_loop_rate_matches(self):
        trace = OpenLoopZipfian(qps=200_000.0, num_requests=5_000,
                                keyspace=100_000, seed=3)
        assert np.all(np.diff(trace.arrival_ns) >= 0)
        assert trace.offered_qps() == pytest.approx(200_000.0, rel=0.1)

    def test_keys_equal_per_key_draws(self):
        trace = OpenLoopZipfian(qps=50_000.0, num_requests=500,
                                keyspace=1_000, theta=0.9, seed=9)
        chooser = ZipfianKeys(1_000, 0.9)
        rng = substream("cluster/keys", 9)
        assert trace.keys.dtype == np.int64
        assert trace.keys.tolist() == [chooser.next_key(rng)
                                       for _ in range(500)]

    def test_bad_parameters_rejected(self):
        with pytest.raises(ClusterError):
            OpenLoopZipfian(qps=0.0, num_requests=10, keyspace=100)
        with pytest.raises(ClusterError):
            OpenLoopZipfian(qps=1.0, num_requests=0, keyspace=100)
        with pytest.raises(ClusterError):
            OpenLoopZipfian(qps=1.0, num_requests=10, keyspace=100,
                            write_fraction=1.5)
