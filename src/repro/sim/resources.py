"""The contention primitive of the DES layer.

:class:`Server` is callback-based: a grant calls back with the
arguments the requester passed, so models keep their per-request state
in callback arguments instead of a closure or a process.
"""

from __future__ import annotations

from collections import deque
from typing import Any, Callable

from ..errors import SimulationError


class Server:
    """A capacity-``n`` service station with a FIFO wait queue.

    Models anything that serves one request per slot: the single-threaded
    Redis event loop (capacity 1), an nginx worker pool, a DSA processing
    engine, or a memory-controller queue.
    """

    def __init__(self, capacity: int, name: str = "server") -> None:
        if capacity <= 0:
            raise SimulationError(f"server capacity must be positive: {capacity}")
        self.capacity = capacity
        self.name = name
        self._busy = 0
        self._waiters: deque[tuple[Callable[..., None], tuple]] = deque()
        # Peak queue depth, useful for sizing diagnostics in tests.
        self.max_queue_depth = 0

    @property
    def busy(self) -> int:
        """Slots currently held."""
        return self._busy

    @property
    def queue_depth(self) -> int:
        """Requests waiting for a slot."""
        return len(self._waiters)

    @property
    def in_flight(self) -> int:
        """Requests holding or waiting for a slot (busy + queue depth)."""
        return self._busy + len(self._waiters)

    def acquire(self, granted: Callable[..., None], *args: Any) -> None:
        """Claim a slot; ``granted(*args)`` fires immediately or when one
        frees.  Extra ``args`` ride through the wait queue, so hot
        callers can pass a bound method plus state instead of
        allocating a closure per request."""
        if self._busy < self.capacity:
            self._busy += 1
            granted(*args)
        else:
            self._waiters.append((granted, args))
            self.max_queue_depth = max(self.max_queue_depth, len(self._waiters))

    def release(self) -> None:
        """Free one slot, handing it to the oldest waiter if any."""
        if self._busy <= 0:
            raise SimulationError(f"release() on idle server {self.name!r}")
        if self._waiters:
            # The slot transfers directly; _busy stays constant.
            granted, args = self._waiters.popleft()
            granted(*args)
        else:
            self._busy -= 1
