"""Supervised fan-out: timeouts, retries, crash classification.

:class:`SupervisedRunner` is the failure-absorbing view of the one
executor in :mod:`repro.parallel.runner`.  A unit past
``SupervisionPolicy.timeout_s`` has its worker killed, and the pool
forks a replacement for the next unit; a failed attempt is retried
after a deterministic backoff; a unit that exhausts its retries
becomes a structured :class:`UnitFailure` and the sweep keeps going
unless ``fail_fast``.  ``jobs <= 1`` with no timeout runs units inline
— the serial code path, with retries wrapped around the call.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable

from ..errors import ResilienceError
from ..parallel.runner import (
    FAILURE_KINDS,
    Executor,
    SupervisionPolicy,
    UnitFailure,
    UnitOutcome,
)

__all__ = ["FAILURE_KINDS", "ResilienceError", "SupervisedRunner",
           "SupervisionPolicy", "UnitFailure", "UnitOutcome"]


class SupervisedRunner(Executor):
    """An ordered, failure-absorbing ``map`` with kill+respawn.

    ``progress(event, index, total, wall_s=None, kind=None,
    attempt=None)`` sees ``"started"`` / ``"finished"`` / ``"retry"`` /
    ``"failed"``.
    """

    def map(self, fn: Callable[[Any], Any],
            specs: Iterable[Any]) -> list[UnitOutcome]:
        """One outcome per spec, in spec order; never raises for a
        unit's own failure.  After a drain, completed units keep their
        values and the rest are marked ``interrupted``."""
        return self.outcomes(fn, list(specs))
