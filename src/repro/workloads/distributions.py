"""Key-popularity distributions used by YCSB.

Three request distributions appear in the paper's Redis study (Fig. 7):
uniform ("uni", the default for workloads A/B/C/F "ensuring maximal
stress on the memory"), Zipfian ("zipf"), and latest ("lat", workload
D's default, reading "the most recently inserted elements").

The Zipfian implementation follows Gray et al.'s rejection-free method
used by YCSB itself (incremental, O(1) per draw), with the YCSB "scrambled"
variant spreading hot keys over the keyspace via FNV hashing.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from ..errors import WorkloadError

ZIPFIAN_CONSTANT = 0.99

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def fnv1a_64(value: int) -> int:
    """64-bit FNV-1a hash of an integer (YCSB's key scrambler)."""
    data = value.to_bytes(8, "little", signed=False)
    hashed = _FNV_OFFSET
    for byte in data:
        hashed ^= byte
        hashed = (hashed * _FNV_PRIME) % (1 << 64)
    return hashed


def fnv1a_64_array(values: np.ndarray) -> np.ndarray:
    """:func:`fnv1a_64` over a uint64 array, one byte lane at a time.

    Array ``uint64`` products wrap modulo 2**64 silently, which is the
    hash's own reduction; a scalar ``uint64`` product would instead warn
    on overflow, so the whole computation stays on arrays.
    """
    values = np.asarray(values, dtype=np.uint64)
    hashed = np.full(values.shape, _FNV_OFFSET, dtype=np.uint64)
    prime = np.uint64(_FNV_PRIME)
    low_byte = np.uint64(0xFF)
    for shift in range(0, 64, 8):
        hashed ^= (values >> np.uint64(shift)) & low_byte
        hashed *= prime
    return hashed


@lru_cache(maxsize=256)
def _zeta_head(terms: int, theta: float) -> float:
    """``sum(1 / i**theta for i in 1..terms)``, memoized per argument.

    Every chooser construction, ``hot_mass`` query and workload-D insert
    needs the same few heads, so each is summed once per process.
    """
    return sum(1.0 / i ** theta for i in range(1, terms + 1))


class KeyChooser:
    """Base class: picks key indices in ``[0, keyspace)``."""

    def __init__(self, keyspace: int) -> None:
        if keyspace <= 0:
            raise WorkloadError(f"keyspace must be positive: {keyspace}")
        self.keyspace = keyspace

    def next_key(self, rng: np.random.Generator) -> int:
        raise NotImplementedError

    def grow(self, new_keyspace: int) -> None:
        """Inform the chooser of inserts (only Latest cares)."""
        if new_keyspace < self.keyspace:
            raise WorkloadError("keyspace cannot shrink")
        self.keyspace = new_keyspace

    def hot_mass(self, hot_keys: int) -> float:
        """Request mass landing on the ``hot_keys`` most popular keys.

        Used to estimate cache hit rates: a 60 MB LLC covers some number
        of hot records, and this is the fraction of requests they absorb.
        """
        raise NotImplementedError


class UniformKeys(KeyChooser):
    """Every key equally likely."""

    def next_key(self, rng: np.random.Generator) -> int:
        return int(rng.integers(0, self.keyspace))

    def hot_mass(self, hot_keys: int) -> float:
        return min(1.0, hot_keys / self.keyspace)


class ZipfianKeys(KeyChooser):
    """Scrambled Zipfian with the YCSB constant theta = 0.99."""

    def __init__(self, keyspace: int,
                 theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(keyspace)
        if not 0 < theta < 1:
            raise WorkloadError(f"theta must be in (0, 1): {theta}")
        self.theta = theta
        self._recompute()

    def _recompute(self) -> None:
        n = self.keyspace
        self._zetan = self._zeta(n, self.theta)
        self._zeta2 = self._zeta(2, self.theta)
        self._alpha = 1.0 / (1.0 - self.theta)
        denominator = 1 - self._zeta2 / self._zetan
        if denominator == 0.0:
            # n == 2: both keys are covered by the explicit rank-0/1
            # branches of next_rank, so eta never matters.
            self._eta = 0.0
        else:
            self._eta = ((1 - (2.0 / n) ** (1 - self.theta))
                         / denominator)

    @staticmethod
    def _zeta(n: int, theta: float) -> float:
        # Exact for small n; Euler–Maclaurin tail for large n keeps this
        # O(1)-ish instead of summing millions of terms.
        cutoff = 10_000
        head = _zeta_head(min(n, cutoff), theta)
        if n <= cutoff:
            return head
        tail = (n ** (1 - theta) - cutoff ** (1 - theta)) / (1 - theta)
        return head + tail

    def _rank(self, u: float) -> int:
        """Gray et al.'s rank of the uniform draw ``u``.

        Python float math on purpose: a vectorized ``pow`` may differ in
        the last ulp and flip the ``int()`` truncation.
        """
        uz = u * self._zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.keyspace
                   * (self._eta * u - self._eta + 1) ** self._alpha)

    def next_rank(self, rng: np.random.Generator) -> int:
        """Popularity rank (0 = hottest), Gray et al.'s method."""
        return self._rank(rng.random())

    def next_key(self, rng: np.random.Generator) -> int:
        rank = min(self.next_rank(rng), self.keyspace - 1)
        return fnv1a_64(rank) % self.keyspace

    def next_keys(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """``n`` keys from one batch of uniforms, as int64.

        Equal to ``[next_key(rng) for _ in range(n)]``: ``rng.random(n)``
        yields the same uniforms as ``n`` scalar draws, each goes
        through :meth:`_rank`, and the scramble is
        :func:`fnv1a_64_array`.
        """
        rank = self._rank
        last = self.keyspace - 1
        ranks = np.fromiter((min(rank(u), last)
                             for u in rng.random(n).tolist()),
                            dtype=np.uint64, count=n)
        return (fnv1a_64_array(ranks)
                % np.uint64(self.keyspace)).astype(np.int64)

    def grow(self, new_keyspace: int) -> None:
        super().grow(new_keyspace)
        self._recompute()

    def hot_mass(self, hot_keys: int) -> float:
        if hot_keys <= 0:
            return 0.0
        return min(1.0, self._zeta(min(hot_keys, self.keyspace),
                                   self.theta) / self._zetan)


class LatestKeys(KeyChooser):
    """Workload D's default: skew toward the most recent inserts.

    Implemented as YCSB does — a Zipfian over recency: draw a Zipfian
    rank and count backwards from the newest key.
    """

    def __init__(self, keyspace: int,
                 theta: float = ZIPFIAN_CONSTANT) -> None:
        super().__init__(keyspace)
        self._zipf = ZipfianKeys(keyspace, theta)

    def next_key(self, rng: np.random.Generator) -> int:
        rank = min(self._zipf.next_rank(rng), self.keyspace - 1)
        return self.keyspace - 1 - rank

    def grow(self, new_keyspace: int) -> None:
        super().grow(new_keyspace)
        self._zipf.grow(new_keyspace)

    def hot_mass(self, hot_keys: int) -> float:
        # Recency skew concentrates harder than scrambled Zipfian: the
        # hot set is *contiguous*, so it also enjoys spatial locality
        # and never leaves the cache between touches.
        return min(1.0, 1.08 * self._zipf.hot_mass(hot_keys))
