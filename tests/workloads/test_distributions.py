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


def boundary_uniforms(zipf, targets):
    """Uniforms in ``[0, 1)`` at which :meth:`ZipfianKeys._rank` changes
    value, each with its neighbours one ulp below and above.

    ``targets`` in ``[0, 1]`` pick ranks ``2 .. keyspace``; each rank
    ``r`` is inverted through ``keyspace * (eta*u - eta + 1)**alpha =
    r``.  The two threshold uniforms ``1 / zetan`` and
    ``(1 + 0.5**theta) / zetan`` are always included.
    """
    ranks = 2 + np.floor(np.asarray(targets) * (zipf.keyspace - 2))
    with np.errstate(all="ignore"):
        base = (ranks / zipf.keyspace) ** (1.0 / zipf._alpha)
        inverted = (base - 1.0 + zipf._eta) / zipf._eta
    thresholds = np.array([1.0, 1.0 + 0.5 ** zipf.theta]) / zipf._zetan
    centre = np.concatenate((inverted, thresholds))
    u = np.concatenate((np.nextafter(centre, -np.inf), centre,
                        np.nextafter(centre, np.inf)))
    return u[np.isfinite(u) & (u >= 0.0) & (u < 1.0)]


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

    @settings(max_examples=60, deadline=None)
    @given(keyspace=st.integers(min_value=1, max_value=10**7),
           theta=st.floats(min_value=0.01, max_value=0.999),
           targets=st.lists(st.floats(min_value=0.0, max_value=1.0),
                            min_size=1, max_size=50))
    def test_ranks_equal_scalar_ranks_on_boundaries(self, keyspace, theta,
                                                    targets):
        """Uniforms built to land on the two thresholds and on integer
        values of the rank formula, plus their neighbours one ulp away:
        exactly where a vectorized ``pow`` could flip a truncation."""
        zipf = ZipfianKeys(keyspace, theta)
        u = boundary_uniforms(zipf, targets)
        assert zipf.ranks(u).tolist() == [zipf._rank(x) for x in u.tolist()]

    @pytest.mark.parametrize("direction", [np.inf, -np.inf])
    def test_ranks_survive_a_pow_one_ulp_off(self, monkeypatch, direction):
        """With numpy's ``pow`` pushed one ulp away from Python's, the
        unguarded numpy ranks differ from the scalar ones on some
        boundary rows; the guarded :meth:`ranks` still agrees."""
        zipf = ZipfianKeys(100_000, 0.99)
        u = boundary_uniforms(zipf, np.linspace(0.0, 1.0, 2000))
        scalar = [zipf._rank(x) for x in u.tolist()]
        power = np.power
        monkeypatch.setattr(
            np, "power", lambda base, exponent:
            np.nextafter(power(base, exponent), direction))
        uz = u * zipf._zetan
        unguarded = np.where(
            uz < 1.0, 0, np.where(
                uz < 1.0 + 0.5 ** zipf.theta, 1,
                np.floor(zipf.keyspace * np.power(
                    zipf._eta * u - zipf._eta + 1, zipf._alpha))))
        assert unguarded.astype(np.int64).tolist() != scalar
        assert zipf.ranks(u).tolist() == scalar

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
