"""Key distributions: bounds, skew, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import WorkloadError
from repro.sim.rng import substream
from repro.workloads import LatestKeys, UniformKeys, ZipfianKeys
from repro.workloads.distributions import fnv1a_64, fnv1a_64_array


def draw(chooser, n=4000, name="keys"):
    rng = substream(name)
    return np.array([chooser.next_key(rng) for _ in range(n)])


class TestUniform:
    def test_keys_in_range(self):
        keys = draw(UniformKeys(1000))
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_roughly_flat(self):
        keys = draw(UniformKeys(10), n=10_000)
        counts = np.bincount(keys, minlength=10)
        assert counts.min() > 0.7 * counts.max()

    def test_hot_mass_is_proportional(self):
        chooser = UniformKeys(1000)
        assert chooser.hot_mass(100) == pytest.approx(0.1)
        assert chooser.hot_mass(2000) == 1.0

    def test_zero_keyspace_rejected(self):
        with pytest.raises(WorkloadError):
            UniformKeys(0)


class TestZipfian:
    def test_keys_in_range(self):
        keys = draw(ZipfianKeys(1000))
        assert keys.min() >= 0
        assert keys.max() < 1000

    def test_skew_concentrates_mass(self):
        """A few keys should dominate the request stream."""
        keys = draw(ZipfianKeys(100_000), n=8000)
        _, counts = np.unique(keys, return_counts=True)
        top = np.sort(counts)[::-1]
        assert top[:10].sum() > 0.15 * len(keys)

    def test_scrambling_spreads_hot_keys(self):
        """Hot keys are spread over the keyspace (not all near 0)."""
        keys = draw(ZipfianKeys(100_000), n=4000)
        values, counts = np.unique(keys, return_counts=True)
        hottest = values[np.argmax(counts)]
        assert hottest != 0        # rank 0 hashed elsewhere

    def test_hot_mass_exceeds_uniform(self):
        zipf = ZipfianKeys(1_000_000)
        uniform = UniformKeys(1_000_000)
        assert zipf.hot_mass(10_000) > 5 * uniform.hot_mass(10_000)

    def test_hot_mass_monotone(self):
        zipf = ZipfianKeys(100_000)
        masses = [zipf.hot_mass(n) for n in (10, 100, 1000, 10_000)]
        assert masses == sorted(masses)
        assert all(0 <= m <= 1 for m in masses)

    def test_bad_theta_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(100, theta=1.5)

    def test_grow_keeps_working(self):
        zipf = ZipfianKeys(100)
        zipf.grow(200)
        keys = draw(zipf, n=500)
        assert keys.max() < 200

    def test_shrink_rejected(self):
        with pytest.raises(WorkloadError):
            ZipfianKeys(100).grow(50)

    @settings(max_examples=20)
    @given(st.integers(min_value=2, max_value=10_000))
    def test_ranks_within_keyspace(self, keyspace):
        zipf = ZipfianKeys(keyspace)
        rng = substream("prop")
        for _ in range(50):
            assert 0 <= zipf.next_key(rng) < keyspace


def reference_zeta(n, theta):
    """The unmemoized zeta: exact head to 10 000 terms, then the tail."""
    cutoff = 10_000
    head = sum(1.0 / i ** theta for i in range(1, min(n, cutoff) + 1))
    if n <= cutoff:
        return head
    return head + (n ** (1 - theta) - cutoff ** (1 - theta)) / (1 - theta)


class TestZipfianBatch:
    @settings(max_examples=60, deadline=None)
    @given(keyspace=st.integers(min_value=1, max_value=10**7),
           theta=st.floats(min_value=0.0, max_value=1.0,
                           exclude_min=True, exclude_max=True),
           n=st.integers(min_value=0, max_value=2000),
           seed=st.integers(min_value=0, max_value=2**31 - 1))
    def test_next_keys_equals_scalar_draws(self, keyspace, theta, n, seed):
        zipf = ZipfianKeys(keyspace, theta)
        batch_rng = substream("batch", seed)
        scalar_rng = substream("batch", seed)
        batch = zipf.next_keys(batch_rng, n)
        assert batch.dtype == np.int64
        assert batch.tolist() == [zipf.next_key(scalar_rng)
                                  for _ in range(n)]
        # Both paths leave the generator at the same point.
        assert batch_rng.random() == scalar_rng.random()

    def test_memoized_zeta_matches_the_plain_sum(self):
        for theta in (0.3, 0.99):
            for n in (1, 2, 9_999, 10_000, 10_001, 10**7):
                expected = reference_zeta(n, theta)
                assert ZipfianKeys._zeta(n, theta) == expected
                assert ZipfianKeys._zeta(n, theta) == expected   # cached

    def test_memoized_hot_mass_matches_the_plain_sum(self):
        for keyspace in (5_000, 1_000_000):
            zipf = ZipfianKeys(keyspace)
            for hot in (1, 4_000, 9_999, 10_000, 10_001, 50_000):
                expected = min(1.0, reference_zeta(min(hot, keyspace), 0.99)
                               / reference_zeta(keyspace, 0.99))
                assert zipf.hot_mass(hot) == expected
                assert zipf.hot_mass(hot) == expected


class TestLatest:
    def test_favors_recent_keys(self):
        """Workload D reads 'the most recently inserted elements'."""
        latest = LatestKeys(100_000)
        keys = draw(latest, n=4000)
        assert np.median(keys) > 0.95 * 100_000

    def test_grow_shifts_focus(self):
        latest = LatestKeys(1000)
        latest.grow(2000)
        keys = draw(latest, n=1000)
        assert np.median(keys) > 1900

    def test_hot_mass_at_least_zipfian(self):
        latest = LatestKeys(1_000_000)
        zipf = ZipfianKeys(1_000_000)
        assert latest.hot_mass(10_000) >= zipf.hot_mass(10_000) - 1e-12


class TestFnv:
    def test_deterministic(self):
        assert fnv1a_64(42) == fnv1a_64(42)

    def test_spreads_consecutive_inputs(self):
        hashes = {fnv1a_64(i) % 1000 for i in range(100)}
        assert len(hashes) > 80

    def test_array_matches_scalar_on_edge_values(self):
        edges = [0, 255, 256, 2**63, 2**64 - 1]
        hashed = fnv1a_64_array(np.array(edges, dtype=np.uint64))
        assert hashed.dtype == np.uint64
        assert [int(h) for h in hashed] == [fnv1a_64(v) for v in edges]

    @given(st.lists(st.integers(min_value=0, max_value=2**64 - 1),
                    max_size=50))
    def test_array_matches_scalar(self, values):
        hashed = fnv1a_64_array(np.array(values, dtype=np.uint64))
        assert [int(h) for h in hashed] == [fnv1a_64(v) for v in values]
