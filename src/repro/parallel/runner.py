"""One ordered executor for every fan-out: sweep points and suite units.

The contract that keeps parallel runs byte-identical to serial ones:
every unit is a *pure* function of its (picklable) spec; a map returns
results **in submission order** whatever the completion order; and
units that need randomness seed it with :func:`unit_seed` from a base
seed and their index, never from process identity or wall clock.

:class:`Executor` runs units inline (the serial code path) or on a
:class:`WorkerPool` of long-lived forked processes, which receive
``(fn, spec)`` over a pipe and send back the result or the error plus
the unit's own wall time.  A worker that times out or dies is killed
and reaped; the pool forks a replacement when the next unit needs one.
``repro-experiments`` opens one pool per suite (:func:`worker_pool`)
that every map inside the suite reuses; a map outside any suite opens
a private pool for its own duration.

Supervision is a :class:`SupervisionPolicy`: a per-unit timeout,
retries after a deterministic backoff (seeded from ``(policy.seed,
unit index, attempt)``, never the unit's own stream), and fail-fast.
Every failure is one of :data:`FAILURE_KINDS`: ``timeout``,
``exception`` (the unit raised), ``killed`` (the worker died without
reporting — OOM killer, SIGKILL, segfault), ``interrupted`` (a drain
stopped it) or ``cancelled`` (fail-fast stopped it).
:class:`ParallelRunner` (values; the first failure raises) and
:class:`~repro.resilience.SupervisedRunner` (one outcome per unit) are
the two views of this one executor.
"""

from __future__ import annotations

import hashlib
import multiprocessing
import os
import signal
import time
from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass, field
from multiprocessing.connection import wait as conn_wait
from random import Random
from typing import Any, Callable, Iterable, Iterator, Sequence

from ..errors import ResilienceError, SimulationError

FAILURE_KINDS = ("timeout", "exception", "killed", "interrupted",
                 "cancelled")

_POLL_INTERVAL_S = 0.2
"""Upper bound on one supervision-loop wait, so drain requests and
deadline checks stay responsive even while every worker is busy."""


def effective_cpu_count() -> int:
    """CPUs actually available to this process.

    Containers and cgroup-limited CI runners often report the machine's
    full core count via ``os.cpu_count()`` while pinning the process to
    far fewer, so the CLIs cap their worker count at this value.
    Prefers the scheduling affinity mask when the platform exposes it;
    ``REPRO_EFFECTIVE_CPUS`` overrides for tests.
    """
    override = os.environ.get("REPRO_EFFECTIVE_CPUS", "")
    if override:
        try:
            value = int(override)
        except ValueError:
            raise SimulationError(
                f"REPRO_EFFECTIVE_CPUS must be an integer: {override!r}")
        if value <= 0:
            raise SimulationError(
                f"REPRO_EFFECTIVE_CPUS must be positive: {value}")
        return value
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def unit_seed(base_seed: int, index: int) -> int:
    """A deterministic 63-bit seed for work unit ``index``.

    Stable across processes, platforms, and Python versions (unlike
    ``hash()``), so a sweep point draws the same random stream whether
    it runs inline, in a worker, or in a differently-sized pool.
    """
    if index < 0:
        raise SimulationError(f"unit index must be non-negative: {index}")
    digest = hashlib.sha256(
        f"{base_seed}:{index}".encode("ascii")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


@dataclass(frozen=True)
class SupervisionPolicy:
    """How hard to try before declaring a unit poisoned.

    The default policy is inert (no timeout, no retries) — exceptions
    are still captured as failures instead of propagating, but nothing
    is killed or re-run.
    """

    timeout_s: float | None = None     # per-unit wall clock (None: off)
    retries: int = 0                   # respawns after the first attempt
    backoff_base_s: float = 0.05       # first-retry delay
    backoff_cap_s: float = 2.0         # delay ceiling
    jitter: float = 0.25               # +/- fraction of the delay
    seed: int = 0                      # jitter stream base seed
    fail_fast: bool = False            # stop the sweep on first poison

    def __post_init__(self) -> None:
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ResilienceError(
                f"timeout_s must be positive, got {self.timeout_s}")
        if self.retries < 0:
            raise ResilienceError(
                f"retries must be >= 0, got {self.retries}")
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ResilienceError("backoff must be >= 0")
        if not 0 <= self.jitter <= 1:
            raise ResilienceError(
                f"jitter must be in [0, 1], got {self.jitter}")

    def backoff_s(self, index: int, attempt: int) -> float:
        """Delay before retry ``attempt`` (1-based) of unit ``index``.

        Deterministic: depends only on ``(seed, index, attempt)``, so a
        resumed or re-sharded sweep waits out the same schedule.
        """
        if attempt < 1:
            raise ResilienceError(
                f"retry attempt must be >= 1, got {attempt}")
        base = min(self.backoff_base_s * (2 ** (attempt - 1)),
                   self.backoff_cap_s)
        rng = Random(unit_seed(self.seed, index) + attempt)
        return base * (1.0 + self.jitter * (2.0 * rng.random() - 1.0))


@dataclass(frozen=True)
class UnitFailure:
    """One poisoned unit, as structured data the ledger can carry."""

    index: int
    unit: str                          # display id (caller-provided)
    kind: str                          # one of FAILURE_KINDS
    attempts: int                      # tries actually made
    message: str = ""
    exit_code: int | None = None       # child exit status when it died

    def __post_init__(self) -> None:
        if self.kind not in FAILURE_KINDS:
            raise ResilienceError(
                f"unknown failure kind {self.kind!r}; "
                f"choose from {FAILURE_KINDS}")

    def to_dict(self) -> dict:
        return {"index": self.index, "unit": self.unit,
                "kind": self.kind, "attempts": self.attempts,
                "message": self.message, "exit_code": self.exit_code}

    def __str__(self) -> str:
        tail = f" (exit {self.exit_code})" \
            if self.exit_code is not None else ""
        detail = f": {self.message}" if self.message else ""
        return (f"{self.unit}: {self.kind} after {self.attempts} "
                f"attempt(s){tail}{detail}")


@dataclass
class UnitOutcome:
    """What one unit produced: a value, or a :class:`UnitFailure`."""

    index: int
    value: Any = None
    failure: UnitFailure | None = None
    attempts: int = 1
    retried: int = 0                   # attempts beyond the first
    error: BaseException | None = field(default=None, repr=False)

    @property
    def ok(self) -> bool:
        return self.failure is None


def _call(fn: Callable[[Any], Any], item: Any) -> tuple:
    """Run one unit: ``(ok, value or error text, exception, wall_s)``."""
    start = time.perf_counter()
    try:
        reply = (True, fn(item), None)
    except Exception as exc:
        reply = (False, f"{type(exc).__name__}: {exc}", exc)
    return reply + (time.perf_counter() - start,)


def _serve(conn, inherited) -> None:                 # pragma: no cover
    """Worker entry point: run ``(fn, spec)`` tasks until told to stop.

    ``inherited`` are the parent-side pipe ends this process got at
    fork; closing them lets every worker see EOF, and exit, once the
    parent is gone.  Workers ignore SIGINT: the terminal sends Ctrl-C
    to the whole process group, and only the parent decides when a
    unit stops.
    """
    global _suite_pool
    _suite_pool = None       # a worker never dispatches onto its parent's
    for end in inherited:
        end.close()
    try:
        signal.signal(signal.SIGINT, signal.SIG_IGN)
    except (ValueError, OSError):
        pass
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            return
        if task is None:
            return
        reply = _call(*task)
        try:
            conn.send(reply)
        except Exception as exc:       # unpicklable value or exception
            text = f"{type(exc).__name__}: {exc}" if reply[0] else reply[1]
            conn.send((False, text, None, reply[3]))


class _Worker:
    """One pool process and the unit it serves (``index`` None: idle)."""

    __slots__ = ("proc", "conn", "index", "attempt", "deadline")

    def __init__(self, proc, conn) -> None:
        self.proc = proc
        self.conn = conn
        self.index: int | None = None
        self.attempt = 0
        self.deadline: float | None = None


class WorkerPool:
    """Up to ``size`` forked workers that outlive any single map.

    Workers are forked when a unit finds none idle, so an unused pool
    costs nothing.  :meth:`close` stops idle workers, terminates busy
    ones and reaps them all.
    """

    def __init__(self, size: int) -> None:
        self.size = size
        self.workers: list[_Worker] = []
        self._idle: list[_Worker] = []

    def acquire(self) -> _Worker:
        if self._idle:
            return self._idle.pop()
        ctx = multiprocessing.get_context()
        conn, child = ctx.Pipe()
        inherited = [conn] + [worker.conn for worker in self.workers]
        proc = ctx.Process(target=_serve, args=(child, inherited),
                           daemon=True)
        proc.start()
        child.close()
        worker = _Worker(proc, conn)
        self.workers.append(worker)
        return worker

    def release(self, worker: _Worker) -> None:
        worker.index = None
        self._idle.append(worker)

    def discard(self, worker: _Worker) -> None:
        """Kill one worker (SIGTERM, then SIGKILL) and reap it."""
        proc = worker.proc
        if proc.is_alive():
            proc.terminate()
            proc.join(0.5)
            if proc.is_alive():
                proc.kill()
        proc.join()
        worker.conn.close()
        self.workers.remove(worker)

    def close(self) -> None:
        for worker in self._idle:
            try:
                worker.conn.send(None)
            except OSError:
                pass
        for worker in list(self.workers):
            if worker.index is None:
                worker.proc.join(1.0)
            self.discard(worker)
        self._idle.clear()


_suite_pool: WorkerPool | None = None


@contextmanager
def worker_pool(size: int) -> Iterator[WorkerPool]:
    """A pool every executor map inside the block shares; reaped on
    exit, so the workers' peak memory is accounted to the caller."""
    global _suite_pool
    previous, _suite_pool = _suite_pool, WorkerPool(size)
    try:
        yield _suite_pool
    finally:
        pool, _suite_pool = _suite_pool, previous
        pool.close()


class Executor:
    """An ordered map over units, inline or on worker processes.

    ``progress`` runs in the parent only, fires in completion order and
    must not touch the results; a ``"finished"`` event's ``wall_s`` is
    the unit's own run time.  ``on_result(index, value)`` fires as each
    value lands, in completion order — the checkpoint hook.
    :meth:`request_drain` (signal-handler safe: it only sets a flag)
    makes a running map launch nothing more, terminate what is in
    flight, and return with the completed units intact.
    """

    jobs_error: type[Exception] = ResilienceError

    def __init__(self, jobs: int = 1,
                 policy: SupervisionPolicy | None = None,
                 progress: Callable[..., None] | None = None,
                 names: Sequence[str] | None = None,
                 on_result: Callable[[int, Any], None] | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 sleep: Callable[[float], None] = time.sleep) -> None:
        if jobs < 1:
            raise self.jobs_error(f"jobs must be >= 1, got {jobs}")
        self.jobs = jobs
        self.policy = policy if policy is not None else SupervisionPolicy()
        self.progress = progress
        self.names = list(names) if names is not None else None
        self.on_result = on_result
        self.clock = clock
        self.sleep = sleep
        self._drain = False

    @property
    def drained(self) -> bool:
        """True once a drain was requested (and honored by ``map``)."""
        return self._drain

    def request_drain(self) -> None:
        """Ask the running ``map`` to wind down; safe from handlers."""
        self._drain = True

    def unit_name(self, index: int) -> str:
        """The display label of unit ``index`` (``unit-<index>`` when
        the caller named nothing)."""
        if self.names is not None and index < len(self.names):
            return self.names[index]
        return f"unit-{index}"

    def _inline(self, count: int) -> bool:
        """Whether ``count`` units run in this process: one worker and
        nothing that could need killing."""
        return self.jobs <= 1 and self.policy.timeout_s is None

    def _notify(self, event: str, index: int, total: int,
                wall_s: float | None = None, kind: str | None = None,
                attempt: int | None = None) -> None:
        if self.progress is not None:
            self.progress(event, index, total, wall_s=wall_s,
                          kind=kind, attempt=attempt)

    def _failure(self, index: int, kind: str, attempts: int,
                 message: str = "", exit_code: int | None = None,
                 error: BaseException | None = None) -> UnitOutcome:
        failure = UnitFailure(index=index, unit=self.unit_name(index),
                              kind=kind, attempts=attempts,
                              message=message, exit_code=exit_code)
        return UnitOutcome(index=index, failure=failure,
                           attempts=attempts,
                           retried=max(attempts - 1, 0), error=error)

    def outcomes(self, fn: Callable[[Any], Any],
                 items: Sequence[Any]) -> list[UnitOutcome]:
        """Run every item under the policy; outcomes in item order."""
        if not items:
            return []
        if self._inline(len(items)):
            return self._run(fn, items, None)
        if _suite_pool is not None:
            return self._run(fn, items, _suite_pool)
        pool = WorkerPool(self.jobs)
        try:
            return self._run(fn, items, pool)
        finally:
            pool.close()

    def _run(self, fn: Callable[[Any], Any], items: Sequence[Any],
             pool: WorkerPool | None) -> list[UnitOutcome]:
        """The supervision loop.  Without a pool each unit runs inline
        when launched, one at a time, and a retry runs before the next
        fresh unit — the serial order."""
        total = len(items)
        width = min(self.jobs, pool.size, total) if pool is not None else 1
        outcomes: list[UnitOutcome | None] = [None] * total
        pending: deque[int] = deque(range(total))
        retries: list[tuple[float, int, int]] = []   # (ready, idx, att)
        busy: dict[Any, _Worker] = {}
        ran: list[tuple[int, int, tuple]] = []       # inline replies
        stop_kind: str | None = None

        def fail(index: int, attempt: int, kind: str, message: str,
                 exit_code: int | None = None,
                 error: BaseException | None = None) -> None:
            """Route one attempt's failure: retry it or poison it."""
            nonlocal stop_kind
            attempts = attempt + 1
            if attempt < self.policy.retries \
                    and not self._drain and stop_kind is None:
                self._notify("retry", index, total, kind=kind,
                             attempt=attempts)
                retries.append((self.clock() + self.policy.backoff_s(
                    index, attempts), index, attempts))
                return
            outcomes[index] = self._failure(index, kind, attempts,
                                            message, exit_code, error)
            self._notify("failed", index, total, kind=kind,
                         attempt=attempts)
            if self.policy.fail_fast and stop_kind is None:
                stop_kind = "cancelled"

        def settle(index: int, attempt: int, reply: tuple) -> None:
            ok, value, error, wall_s = reply
            if not ok:
                fail(index, attempt, "exception", value, error=error)
                return
            if self.on_result is not None:
                self.on_result(index, value)
            self._notify("finished", index, total, wall_s=wall_s)
            outcomes[index] = UnitOutcome(index=index, value=value,
                                          attempts=attempt + 1,
                                          retried=attempt)

        def launch(index: int, attempt: int) -> None:
            if pool is None:
                ran.append((index, attempt, _call(fn, items[index])))
                return
            worker = pool.acquire()
            try:
                worker.conn.send((fn, items[index]))
            except Exception as exc:   # unpicklable spec or dead pipe
                pool.discard(worker)
                fail(index, attempt, "exception",
                     f"{type(exc).__name__}: {exc}", error=exc)
                return
            worker.index, worker.attempt = index, attempt
            worker.deadline = self.clock() + self.policy.timeout_s \
                if self.policy.timeout_s is not None else None
            busy[worker.conn] = worker

        while pending or retries or busy or ran:
            for index, attempt, reply in ran:
                settle(index, attempt, reply)
            ran.clear()
            now = self.clock()
            if self._drain and stop_kind is None:
                stop_kind = "interrupted"
            if stop_kind is not None:
                for index in pending:
                    outcomes[index] = self._failure(index, stop_kind, 0)
                for _, index, attempts in retries:
                    outcomes[index] = self._failure(index, stop_kind,
                                                    attempts)
                for worker in busy.values():
                    outcomes[worker.index] = self._failure(
                        worker.index, stop_kind, worker.attempt + 1)
                    pool.discard(worker)
                break
            # Due retries first (they hold the oldest indices), then
            # fresh units, up to the worker budget.
            retries.sort()
            while retries and retries[0][0] <= now \
                    and len(busy) + len(ran) < width:
                _, index, attempt = retries.pop(0)
                launch(index, attempt)
            while pending and len(busy) + len(ran) < width \
                    and (pool is not None or not retries):
                index = pending.popleft()
                self._notify("started", index, total)
                launch(index, 0)
            if not busy:
                if retries and not ran:
                    # Only backoff waits remain: sleep them out (the
                    # bound keeps drain requests responsive).
                    self.sleep(min(max(retries[0][0] - now, 0.0),
                                   _POLL_INTERVAL_S))
                continue
            # One bounded wait: the nearest deadline, retry-ready time,
            # or the poll interval, whichever is soonest.
            timeout = _POLL_INTERVAL_S
            for worker in busy.values():
                if worker.deadline is not None:
                    timeout = min(timeout, worker.deadline - now)
            if retries:
                timeout = min(timeout, retries[0][0] - now)
            for conn in conn_wait(list(busy), timeout=max(timeout, 0.0)):
                worker = busy.pop(conn)
                index, attempt = worker.index, worker.attempt
                try:
                    reply = conn.recv()
                except (EOFError, OSError):
                    pool.discard(worker)
                    fail(index, attempt, "killed",
                         "worker died without reporting",
                         exit_code=worker.proc.exitcode)
                    continue
                except Exception as exc:   # an unreadable reply
                    reply = (False, f"{type(exc).__name__}: {exc}", None,
                             None)
                pool.release(worker)
                settle(index, attempt, reply)
            now = self.clock()
            for conn, worker in list(busy.items()):
                if worker.deadline is not None and now >= worker.deadline:
                    del busy[conn]
                    index, attempt = worker.index, worker.attempt
                    pool.discard(worker)
                    fail(index, attempt, "timeout",
                         f"exceeded {self.policy.timeout_s:g}s")
        # Every index is settled exactly once: it sits in exactly one
        # of pending / retries / busy / ran until its outcome lands, and
        # the drain/fail-fast sweep settles the first three (``ran`` is
        # empty there).
        return outcomes  # type: ignore[return-value]


class ParallelRunner(Executor):
    """Shard independent work units across processes, merge in order.

    ``jobs <= 1`` (or a single unit) runs inline — the serial code
    path, no worker, no pickling.  The first failing unit cancels the
    rest and its exception propagates (the earliest-submitted failure
    wins among units that ran).  ``progress(event, index, total,
    wall_s=..., name=...)`` sees ``"started"`` / ``"finished"``;
    ``names`` label the units (e.g. ``figC[qps=50k,skew=0.99]``,
    default ``unit-<index>``).
    """

    jobs_error = SimulationError

    def __init__(self, jobs: int = 1,
                 progress: Callable[..., None] | None = None,
                 names: Sequence[str] | None = None) -> None:
        super().__init__(jobs, SupervisionPolicy(fail_fast=True),
                         progress, names)

    @property
    def parallel(self) -> bool:
        return self.jobs > 1

    def _inline(self, count: int) -> bool:
        return self.jobs <= 1 or count <= 1

    def _notify(self, event: str, index: int, total: int,
                wall_s: float | None = None, kind: str | None = None,
                attempt: int | None = None) -> None:
        if self.progress is not None and event in ("started",
                                                   "finished"):
            self.progress(event, index, total, wall_s=wall_s,
                          name=self.unit_name(index))

    def map(self, fn: Callable[[Any], Any],
            specs: Iterable[Any]) -> list[Any]:
        """``[fn(s) for s in specs]`` — possibly across processes;
        ``fn`` must be a picklable module-level callable."""
        outcomes = self.outcomes(fn, list(specs))
        for outcome in outcomes:
            failure = outcome.failure
            if failure is not None and failure.kind != "cancelled":
                raise outcome.error if outcome.error is not None \
                    else SimulationError(str(failure))
        return [outcome.value for outcome in outcomes]
