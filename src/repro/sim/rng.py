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
from typing import Iterable

import numpy as np

DEFAULT_SEED = 0x5EED_C0DE


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
    material = ":".join(str(part) for part in (seed, *key))
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
