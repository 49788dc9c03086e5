"""Process-parallel execution for sweeps and experiments.

The paper's figures are built from sweeps — thread counts, block sizes,
QPS points, DLRM configs — whose points are independent of each other.
This package fans those units out across worker processes and hands
the results back in submission order, so a parallel run is
byte-identical to a serial one:

* :class:`ParallelRunner` (:mod:`repro.parallel.runner`) — the ordered
  ``map`` of the one executor, on long-lived worker processes that a
  whole ``repro-experiments`` suite shares
  (:func:`~repro.parallel.runner.worker_pool`); ``jobs <= 1``
  degenerates to an in-process loop so the serial path stays exactly
  what it was.
* :class:`ResultCache` (:mod:`repro.parallel.cache`) — a
  content-addressed store under ``results/.cache/`` keyed on
  ``(experiment id, config dict, package fingerprint)``; re-running an
  unchanged figure becomes a file read.
* :mod:`repro.parallel.sweeps` — the picklable module-level unit
  functions shipped to workers (experiment sweep points and whole
  experiments).

See docs/PERFORMANCE.md for the sharding and cache-key contract.
"""

from __future__ import annotations

from .cache import (
    QUARANTINE_DIR_NAME,
    ResultCache,
    package_fingerprint,
    payload_checksum,
    result_key,
)
from .runner import ParallelRunner, effective_cpu_count, unit_seed

__all__ = [
    "ParallelRunner",
    "QUARANTINE_DIR_NAME",
    "ResultCache",
    "effective_cpu_count",
    "package_fingerprint",
    "payload_checksum",
    "result_key",
    "unit_seed",
]
