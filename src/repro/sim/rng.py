"""Deterministic named random-number substreams.

Every stochastic component (YCSB key pickers, Poisson arrival processes,
service-time jitter) draws from its own named substream derived from a
single root seed.  Two benefits:

* experiments are exactly reproducible from one integer seed, and
* adding a new random consumer does not perturb the draws seen by
  existing consumers (no shared-stream coupling).
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from typing import Iterable

import numpy as np

DEFAULT_SEED = 0x5EED_C0DE

MEMO_BYTES = 16 << 20
"""What :func:`remember` keeps, at most, over all keys and values."""

_memo: OrderedDict[tuple, tuple[tuple, int]] = OrderedDict()
"""``key -> (value, size)``, least recently used first."""


def substream(name: str, seed: int = DEFAULT_SEED) -> np.random.Generator:
    """A :class:`numpy.random.Generator` keyed by ``(seed, name)``.

    The same ``(seed, name)`` pair always yields an identical stream;
    distinct names yield statistically independent streams (derived via
    SHA-256, then fed to PCG64).
    """
    if not name:
        raise ValueError("substream name must be non-empty")
    digest = hashlib.sha256(f"{seed}:{name}".encode()).digest()
    child_seed = int.from_bytes(digest[:8], "little")
    return np.random.Generator(np.random.PCG64(child_seed))


def decision_uniform(seed: int, *key: object) -> float:
    """A uniform draw in ``[0, 1)`` addressed by ``(seed, *key)``.

    Counter-based (stateless) randomness: the value depends only on the
    key, never on how many draws happened before it.  Two properties
    follow that sequential generators cannot give:

    * **order independence** — a parallel run that visits decision
      points in a different order sees exactly the serial run's values
      (the fault-determinism contract, docs/FAULTS.md);
    * **coupled thresholds** — comparing the same draw against two
      rates ``p1 < p2`` makes the ``p1`` event set a subset of the
      ``p2`` set, so raising a fault rate only ever *adds* faults
      (monotone degradation, no random crossover).
    """
    material = ":".join(map(str, (seed, *key)))
    digest = hashlib.blake2b(material.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") / 2.0 ** 64


def decision_uniforms(seed: int, *prefix: object,
                      keys: Iterable[object]) -> list[float]:
    """``[decision_uniform(seed, *prefix, key) for key in keys]``.

    The batch form for a hot loop: the ``seed:prefix:`` head is joined
    once, so each key costs one string concatenation and one blake2b
    digest over exactly the bytes :func:`decision_uniform` hashes.
    """
    head = ":".join(str(part) for part in (seed, *prefix)) + ":"
    blake2b = hashlib.blake2b
    return [int.from_bytes(blake2b((head + str(key)).encode(),
                                   digest_size=8).digest(), "little")
            / 2.0 ** 64 for key in keys]


def generator_key(rng: np.random.Generator) -> tuple:
    """The full state of ``rng``'s bit generator, as a hashable value.

    Two generators with equal keys yield the same draws from here on,
    so a memo key that holds it pins every draw the memoized work made.
    """
    return _hashable(rng.bit_generator.state)


def _hashable(value: object) -> object:
    if isinstance(value, dict):
        return tuple((name, _hashable(value[name]))
                     for name in sorted(value))
    if isinstance(value, np.ndarray):
        return (value.dtype.str, value.shape, value.tobytes())
    return value


def recall(key: tuple) -> tuple | None:
    """The value :func:`remember` stored under ``key``, or ``None``.

    The process-local memo of seeded draws: a sweep that draws the same
    trace at many operating points draws it once and reads it back
    here.  ``key`` must name everything the draws depend on — the
    generator states (:func:`generator_key`) included — so a hit is
    the value a fresh draw would give, bit for bit.
    """
    entry = _memo.get(key)
    if entry is None:
        return None
    _memo.move_to_end(key)
    return entry[0]


def remember(key: tuple, value: tuple) -> tuple:
    """Store ``value`` under ``key`` and return it frozen.

    Frozen means every numpy array in ``value`` is made read-only and
    every list becomes a tuple, so no caller can change what a later
    :func:`recall` returns.  The least recently used entries are
    dropped while the memo holds more than :data:`MEMO_BYTES`; a value
    larger than that on its own is returned without being kept.
    """
    value = tuple(_frozen(item) for item in value)
    size = _nbytes(key) + _nbytes(value)
    if size <= MEMO_BYTES:
        _memo[key] = value, size
        total = sum(size for _, size in _memo.values())
        while total > MEMO_BYTES:
            total -= _memo.popitem(last=False)[1][1]
    return value


def forget() -> None:
    """Empty the memo (a cold start, for tests and measurements)."""
    _memo.clear()


def _frozen(item: object) -> object:
    if isinstance(item, np.ndarray):
        item.flags.writeable = False
    elif isinstance(item, list):
        return tuple(item)
    return item


def _nbytes(value: object) -> int:
    """Roughly what ``value`` holds: array and bytes payloads plus one
    pointer per tuple slot."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (bytes, str)):
        return len(value)
    if isinstance(value, tuple):
        return sum(8 + _nbytes(item) for item in value)
    if isinstance(value, dict):
        return sum(8 + _nbytes(item) for item in value.values())
    return 8
