"""Wall-clock component profiling with deterministic output shape.

The telemetry tracer answers "where did *simulated* time go"; this
profiler answers "where did *wall-clock* time go" — per phase, per
experiment — so perf PRs can attribute host seconds alongside the
simulated-time tracks (docs/TELEMETRY.md) instead of eyeballing suite
totals.

Output is deterministic in *shape*: phases appear in first-seen order,
keys are fixed, floats are rounded — only the measured seconds vary
between runs (tests pin the exact bytes by injecting a fake clock).
``cprofile_top > 0`` additionally collects a cProfile top-N table by
cumulative time, with file paths reduced to basenames so the table is
checkout-location independent.

Disabled profilers (``Profiler(enabled=False)``) accept the same calls
and record nothing, which keeps the instrumented call sites unconditional
— the same null-object pattern :data:`repro.telemetry.NULL_TELEMETRY`
uses.
"""

from __future__ import annotations

import cProfile
import json
import pstats
import time
from contextlib import contextmanager
from pathlib import Path

from ..errors import ReproError

PROFILE_SCHEMA_VERSION = 1


class Profiler:
    """Accumulate named wall-clock phases; export as ``*.profile.json``."""

    def __init__(self, *, enabled: bool = True, clock=time.perf_counter,
                 cprofile_top: int = 0) -> None:
        if cprofile_top < 0:
            raise ReproError(
                f"cprofile_top must be >= 0, got {cprofile_top}")
        self.enabled = enabled
        self.clock = clock
        self.cprofile_top = cprofile_top
        self._phases: dict[str, dict] = {}    # name -> {wall_s, calls}
        self._cprofile: cProfile.Profile | None = None
        self._depth = 0

    @contextmanager
    def phase(self, name: str):
        """Time one ``with`` block under ``name`` (repeats accumulate)."""
        if not self.enabled:
            yield
            return
        start = self.clock()
        try:
            yield
        finally:
            elapsed = self.clock() - start
            slot = self._phases.setdefault(
                name, {"wall_s": 0.0, "calls": 0})
            slot["wall_s"] += elapsed
            slot["calls"] += 1

    @contextmanager
    def collecting(self):
        """Enable the optional cProfile collection around a run.

        Reentrant-safe: nested ``collecting`` blocks no-op, so a caller
        may wrap both a suite and the runs inside it.
        """
        if not self.enabled or not self.cprofile_top:
            yield
            return
        self._depth += 1
        if self._depth == 1:
            self._cprofile = cProfile.Profile()
            self._cprofile.enable()
        try:
            yield
        finally:
            self._depth -= 1
            if self._depth == 0 and self._cprofile is not None:
                self._cprofile.disable()

    def phase_seconds(self, name: str) -> float:
        if name not in self._phases:
            raise ReproError(f"no profiled phase {name!r}; "
                             f"recorded: {list(self._phases)}")
        return self._phases[name]["wall_s"]

    def _cprofile_table(self) -> list[dict]:
        """Top-N functions by cumulative seconds, deterministic order."""
        if self._cprofile is None:
            return []
        stats = pstats.Stats(self._cprofile)
        rows = []
        for (filename, lineno, funcname), \
                (_, ncalls, _, cumtime, _) in stats.stats.items():
            where = Path(filename).name if filename not in (
                "~", "") else "builtin"
            rows.append({"function": f"{where}:{funcname}",
                         "calls": ncalls,
                         "cumtime_s": round(cumtime, 4)})
        rows.sort(key=lambda row: (-row["cumtime_s"], row["function"]))
        return rows[: self.cprofile_top]

    def to_dict(self, *, extra: dict | None = None) -> dict:
        """The profile as JSON-ready data (stable key / phase order)."""
        phases = [{"name": name,
                   "wall_s": round(slot["wall_s"], 6),
                   "calls": slot["calls"]}
                  for name, slot in self._phases.items()]
        data: dict = {
            "schema": PROFILE_SCHEMA_VERSION,
            "phases": phases,
            "total_s": round(sum(slot["wall_s"]
                                 for slot in self._phases.values()), 6),
        }
        table = self._cprofile_table()
        if table:
            data["cprofile_top"] = table
        if extra:
            data.update(extra)
        return data

    def write(self, path, *, extra: dict | None = None) -> Path:
        """Write :meth:`to_dict` as pretty sorted JSON; returns path."""
        target = Path(path)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(self.to_dict(extra=extra), indent=2,
                                     sort_keys=True) + "\n")
        return target


def write_experiment_profile(directory, experiment_id: str, *,
                             wall_s: float | None, cached: bool,
                             passed: bool | None = None) -> Path:
    """One experiment's ``<id>.profile.json`` (per-experiment slice).

    The suite-level phase breakdown lands in ``suite.profile.json`` via
    :meth:`Profiler.write`; this writes the per-experiment attribution
    next to it so dashboards can join on experiment id.
    """
    target = Path(directory) / f"{experiment_id}.profile.json"
    target.parent.mkdir(parents=True, exist_ok=True)
    data = {
        "schema": PROFILE_SCHEMA_VERSION,
        "experiment": experiment_id,
        "wall_s": round(wall_s, 6) if wall_s is not None else None,
        "cached": cached,
        "passed": passed,
    }
    target.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return target
