"""The run recorder: one place every unit event of a sweep lands.

The experiment scheduler reports each event once — cache hit or miss,
unit start, finish, retry, failure, checkpoint replay, cache
quarantine — and :class:`RunHooks` stores it once.  Afterwards the
hit/miss lists, per-unit wall seconds and resilience record are what
:func:`repro.obs.ledger.run_record` reads.

With display on (``total`` given) the recorder also renders each event
on stderr as it lands:

* stderr **is** a TTY — one carriage-return-rewritten status line
  (``[3/14] experiments: fig6 2.1s | cache 2h/1m | eta 4.2s``), erased
  cleanly on :meth:`~RunHooks.close`.  Repaints are throttled to one
  per :data:`MIN_RENDER_INTERVAL_S` so a sweep of sub-millisecond
  units (fine-grained shards, cache-hit storms) doesn't spend its wall
  time writing to the terminal — retries, failures, and the final
  completion always render regardless;
* stderr is **not** a TTY (CI, redirection, pytest capture) — one
  :class:`~repro.obs.runlog.RunLog` event per unit event, so logs stay
  line-oriented and machine-parseable.

Either way nothing is ever written to stdout, which is what keeps
serial and parallel CLI output byte-identical with progress enabled.
``total=None`` (``--no-progress``) records without rendering.
"""

from __future__ import annotations

import sys
import time
from typing import TextIO

from ..errors import ReproError
from .runlog import RunLog

MIN_RENDER_INTERVAL_S = 0.1
"""Floor between consecutive TTY repaints (seconds)."""


class RunHooks:
    """Record a sweep's unit events; render them when display is on."""

    def __init__(self, total: int | None = None, *,
                 runlog: RunLog | None = None,
                 stream: TextIO | None = None,
                 tty: bool | None = None,
                 clock=time.monotonic,
                 min_render_interval_s: float = MIN_RENDER_INTERVAL_S
                 ) -> None:
        if total is not None and total < 0:
            raise ReproError(f"total must be >= 0, got {total}")
        self.total = total
        self.runlog = RunLog("progress") \
            if runlog is None and total is not None else runlog
        self.stream = stream if stream is not None else sys.stderr
        self.is_tty = tty if tty is not None \
            else bool(getattr(self.stream, "isatty", lambda: False)())
        self.clock = clock
        self.min_render_interval_s = min_render_interval_s
        self.cache_hits: list[str] = []
        self.cache_misses: list[str] = []
        self.unit_wall: dict[str, float] = {}
        self.retries: dict[str, int] = {}
        self.failures: dict[str, dict] = {}
        self.resumed: list[str] = []
        self.quarantined: list[dict] = []
        self._started = clock()
        self._line_width = 0
        self._last_render: float | None = None

    # -- recording ---------------------------------------------------------

    def cache_hit(self, name: str) -> None:
        self.cache_hits.append(name)
        self._show_done(name, " cache", cached=True)

    def cache_miss(self, name: str) -> None:
        self.cache_misses.append(name)

    def unit_started(self, name: str) -> None:
        self._show(f"{name} …", "debug", "unit-started", id=name,
                   done=self.done, total=self.total)

    def unit_finished(self, name: str, wall_s: float) -> None:
        """A unit landed after ``wall_s`` seconds of its own run time."""
        self.unit_wall[name] = wall_s
        self._show_done(name, f" {wall_s:.1f}s", wall_s=wall_s)

    def unit_resumed(self, name: str) -> None:
        """A unit replayed from the checkpoint journal (``--resume``)."""
        self.resumed.append(name)
        self._show_done(name, " resumed", resumed=True)

    def unit_retry(self, name: str, *, attempt: int, kind: str) -> None:
        """A supervised attempt failed and is being respawned (does not
        advance ``done``)."""
        self.retries[name] = self.retries.get(name, 0) + 1
        self._show(f"{name} retry #{attempt} ({kind})", "warn",
                   "unit-retry", force=True, id=name, attempt=attempt,
                   kind=kind, done=self.done, total=self.total)

    def unit_failed(self, name: str, failure) -> None:
        """A unit exhausted its retries — structured, never raising.

        ``failure`` is a :class:`repro.resilience.UnitFailure` (or
        anything with a ``to_dict``); the dict lands in the ledger's
        ``resilience.failures`` map.
        """
        record = failure.to_dict() if hasattr(failure, "to_dict") \
            else dict(failure)
        self.failures[name] = record
        kind = record.get("kind", "exception")
        self._show(f"{name} FAILED ({kind})", "warn", "unit-failed",
                   force=True, id=name, kind=kind,
                   attempts=record.get("attempts", 1), done=self.done,
                   total=self.total)

    def cache_quarantined(self, key: str, path: str,
                          reason: str) -> None:
        """A corrupt cache entry was moved aside (and will recompute)."""
        self.quarantined.append({"key": key, "path": path,
                                 "reason": reason})
        if self.runlog is not None:
            self.runlog.warn("cache-quarantined", key=key,
                             reason=reason, path=path)

    # -- ledger views ------------------------------------------------------

    def resilience_record(self, *, interrupted: bool = False) -> dict | None:
        """The ledger's ``resilience`` field; ``None`` when untouched.

        A healthy, un-resumed, un-quarantined run records nothing — the
        field only appears when the supervision layer actually acted,
        so existing ledger consumers see unchanged records for normal
        runs.
        """
        if not (self.retries or self.failures or self.resumed
                or self.quarantined or interrupted):
            return None
        return {
            "retries": dict(sorted(self.retries.items())),
            "failures": dict(sorted(self.failures.items())),
            "resumed": sorted(self.resumed),
            "quarantined": sorted(
                (q["key"] for q in self.quarantined)),
            "interrupted": interrupted,
        }

    def verdicts(self, results) -> dict:
        """Ledger ``verdicts`` from ``[(id, ExperimentResult), ...]``.

        Failed units (no result object) report ``passed: false`` plus
        their failure kind, so the per-run history distinguishes "shape
        check failed" from "never produced a result".
        """
        out: dict = {}
        for eid, result in results:
            wall = self.unit_wall.get(eid)
            out[eid] = {
                "passed": getattr(result, "passed", None),
                "wall_s": round(wall, 4) if wall is not None else None,
                "cached": eid in self.cache_hits,
            }
        for eid, failure in self.failures.items():
            out[eid] = {
                "passed": False,
                "wall_s": None,
                "cached": False,
                "failed": failure.get("kind", "exception"),
            }
        return out

    # -- display -----------------------------------------------------------

    @property
    def done(self) -> int:
        """Units resolved so far: served, finished, replayed or failed."""
        return (len(self.cache_hits) + len(self.unit_wall)
                + len(self.resumed) + len(self.failures))

    def eta_s(self) -> float | None:
        """Remaining seconds, from the mean pace of resolved units."""
        done = self.done
        if done == 0 or self.total is None or done >= self.total:
            return None
        elapsed = self.clock() - self._started
        return elapsed / done * (self.total - done)

    def note(self, text: str) -> None:
        """Persist one advisory line above the live status.

        On a TTY the current status line is replaced by the note (which
        scrolls away instead of being overwritten) and then repainted;
        off-TTY the note lands as a structured warn event.  Used for
        run-level advisories like ``--jobs`` oversubscription.
        """
        if self.total is None:
            return
        if self.is_tty:
            self._erase()
            self.stream.write(text + "\n")
            self.stream.flush()
        else:
            self.runlog.warn("note", text=text)

    def _show_done(self, name: str, took: str, *,
                   wall_s: float | None = None, cached: bool = False,
                   resumed: bool = False) -> None:
        self._show(f"{name}{took}", "info", "unit-finished",
                   force=self.done == self.total, id=name,
                   done=self.done, total=self.total, cached=cached,
                   resumed=resumed, wall_s=wall_s, eta_s=self.eta_s())

    def _show(self, tail: str, level: str, event: str, *,
              force: bool = False, **fields) -> None:
        """Render one event: the TTY status line, or a RunLog event."""
        if self.total is None:
            return
        if self.is_tty:
            self._render(tail, force=force)
        else:
            getattr(self.runlog, level)(event, **fields)

    def _render(self, tail: str, *, force: bool = False) -> None:
        # Repaint throttle: fine-grained shards can finish every few
        # hundred microseconds, and an unthrottled status line turns
        # that into a TTY write per unit.  The records above stay exact
        # — only the repaint is skipped — and retries, failures, and
        # the final unit force their way through.
        now = self.clock()
        if (not force and self._last_render is not None
                and now - self._last_render < self.min_render_interval_s):
            return
        self._last_render = now
        eta = self.eta_s()
        eta_text = f" | eta {eta:.1f}s" if eta is not None else ""
        cache_text = (f" | cache {len(self.cache_hits)}h/"
                      f"{len(self.cache_misses)}m"
                      if self.cache_hits or self.cache_misses else "")
        line = (f"[{self.done}/{self.total}] experiments: "
                f"{tail}{cache_text}{eta_text}")
        pad = max(self._line_width - len(line), 0)
        self._line_width = len(line)
        self.stream.write("\r" + line + " " * pad)
        self.stream.flush()

    def _erase(self) -> None:
        if self._line_width:
            self.stream.write("\r" + " " * self._line_width + "\r")
            self._line_width = 0

    def close(self) -> None:
        """Erase the TTY status line (idempotent)."""
        if self.total is not None and self.is_tty:
            self._erase()
            self.stream.flush()
