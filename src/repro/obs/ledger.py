"""The run ledger: one JSONL record per CLI invocation.

``repro-experiments`` and ``memo`` append a structured record to
``results/runs.jsonl`` after every run, so the repo accumulates a
queryable history of *what was run, against which code, and how it
went* — the substrate ``repro-report`` aggregates into trend lines.

Record schema (``schema: 1``; every record is one JSON line with
sorted keys)::

    {"schema": 1,
     "tool": "repro-experiments" | "memo" | ...,
     "argv": [...],                  # the CLI args as given
     "ids": [...],                   # experiment / bench ids covered
     "started_at": "2026-08-06T03:12:02Z",
     "wall_s": 1.234,                # whole-invocation wall clock
     "git_rev": "abc1234" | null,
     "config_hash": "0f3a…12hex",    # canonical-JSON hash of the config
     "fault_plan_hash": "…" | null,
     "seed": 7 | null,               # fault-plan seed when present
     "cache": {"hits": [...], "misses": [...]},
     "verdicts": {id: {"passed": true|false|null,
                       "wall_s": 0.12 | null,
                       "cached": false}},
     "metrics_digest": "…12hex" | null,
     "resilience": null | {"retries": {id: n}, "failures": {id: {...}},
                           "resumed": [...], "quarantined": [...],
                           "interrupted": false},
     "exit_code": 0}

``resilience`` is ``null`` for any run the supervision layer never
touched (no retries, failures, resumes, quarantines, or interrupts) —
docs/RESILIENCE.md specifies the populated shape.

Timestamps are recorded **here and only here** — ``repro-report``
renders ledger timestamps, never its own clock, which is what keeps
report output byte-identical across re-renders of the same inputs.

The path defaults to ``results/runs.jsonl`` under the working
directory; ``REPRO_LEDGER_PATH`` overrides it (tests and CI isolate
runs exactly like ``REPRO_CACHE_DIR`` does for the result cache).
"""

from __future__ import annotations

import json
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

from ..canonical import canonical_digest
from ..errors import ReproError

SCHEMA_VERSION = 1
DEFAULT_LEDGER_PATH = Path("results") / "runs.jsonl"
LEDGER_PATH_ENV = "REPRO_LEDGER_PATH"


def ledger_path(path=None) -> Path:
    """Resolve the ledger location (arg > env var > default)."""
    import os

    if path is not None:
        return Path(path)
    override = os.environ.get(LEDGER_PATH_ENV)
    return Path(override) if override else DEFAULT_LEDGER_PATH


def config_hash(config: dict | None) -> str | None:
    """12-hex digest of a config dict's canonical JSON (None for None)."""
    if config is None:
        return None
    return canonical_digest(config)[:12]


def utc_timestamp() -> str:
    """Now, as the ledger's ``started_at`` stamp (UTC, seconds)."""
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def git_rev() -> str | None:
    """The checkout's short commit hash, or ``None`` outside git."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return None
    rev = out.stdout.strip()
    return rev if out.returncode == 0 and rev else None


def run_record(*, tool: str, argv: list[str], ids: list[str],
               started_at: str, wall_s: float,
               config: dict | None = None,
               fault_plan_config: dict | None = None,
               seed: int | None = None,
               cache_hits: list[str] | None = None,
               cache_misses: list[str] | None = None,
               verdicts: dict | None = None,
               metrics_digest: str | None = None,
               resilience: dict | None = None,
               spans: dict | None = None,
               exit_code: int = 0,
               rev: str | None = None) -> dict:
    """Build one schema-1 ledger record (pure data, no I/O).

    ``rev`` defaults to :func:`git_rev` — pass it explicitly in tests
    to keep records deterministic.  ``spans`` is the span-output digest
    (``{"exemplars": N, "digest": 12-hex}`` from
    :func:`repro.telemetry.spans.spans_digest`) of a spanned run, so
    tail-attribution output is auditable the same way metrics are.
    """
    if not tool:
        raise ReproError("ledger record needs a tool name")
    return {
        "schema": SCHEMA_VERSION,
        "tool": tool,
        "argv": list(argv),
        "ids": list(ids),
        "started_at": started_at,
        "wall_s": round(float(wall_s), 4),
        "git_rev": rev if rev is not None else git_rev(),
        "config_hash": config_hash(config),
        "fault_plan_hash": config_hash(fault_plan_config),
        "seed": seed,
        "cache": {"hits": sorted(cache_hits or []),
                  "misses": sorted(cache_misses or [])},
        "verdicts": verdicts or {},
        "metrics_digest": metrics_digest,
        "resilience": resilience,
        "spans": spans,
        "exit_code": exit_code,
    }


def append_record(record: dict, path=None) -> Path:
    """Append ``record`` as one JSON line; returns the ledger path."""
    if record.get("schema") != SCHEMA_VERSION:
        raise ReproError(
            f"refusing to append non-schema-{SCHEMA_VERSION} record: "
            f"{record.get('schema')!r}")
    target = ledger_path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    line = json.dumps(record, sort_keys=True, separators=(",", ":"))
    with target.open("a") as handle:
        handle.write(line + "\n")
    return target


def append_run(runlog, *, argv: list[str] | None, **fields) -> None:
    """Best-effort: build one :func:`run_record` and append it.

    ``argv`` ``None`` records ``sys.argv[1:]``.  A ledger I/O error
    never fails a run: it becomes a ``ledger-append-failed`` warning
    on ``runlog``.
    """
    try:
        path = append_record(run_record(
            argv=sys.argv[1:] if argv is None else argv, **fields))
        runlog.debug("ledger-appended", path=str(path))
    except OSError as exc:
        runlog.warn("ledger-append-failed",
                    **describe_append_failure(exc))


def describe_append_failure(exc: OSError, path=None) -> dict:
    """Structured fields for a ``ledger-append-failed`` warning.

    A bare ``str(exc)`` can hide *which* path refused the write and
    *why* (EACCES vs. ENOSPC vs. EROFS read very differently when
    debugging CI), so the CLIs log these fields instead.
    """
    import errno as errno_module

    code = getattr(exc, "errno", None)
    return {
        "error": str(exc),
        "errno": errno_module.errorcode.get(code, str(code))
        if code is not None else None,
        "path": str(getattr(exc, "filename", None)
                    or ledger_path(path)),
    }


def read_ledger(path=None) -> list[dict]:
    """All parseable records in append order (corrupt lines skipped).

    A half-written tail line (interrupted run) must not take the whole
    history down, so decode errors drop that line only.
    """
    target = ledger_path(path)
    records: list[dict] = []
    try:
        text = target.read_text()
    except FileNotFoundError:
        return records
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError:
            continue
        if isinstance(record, dict) and record.get("schema") \
                == SCHEMA_VERSION:
            records.append(record)
    return records


def figure_wall_history(records: list[dict],
                        experiment_id: str) -> list[float]:
    """Per-run wall seconds of one experiment, in ledger order.

    The trend-line input for ``repro-report``: every record whose
    verdicts cover ``experiment_id`` with a measured (non-null,
    non-cached) wall time contributes one point.
    """
    history: list[float] = []
    for record in records:
        verdict = record.get("verdicts", {}).get(experiment_id)
        if not isinstance(verdict, dict):
            continue
        wall = verdict.get("wall_s")
        if wall is not None and not verdict.get("cached"):
            history.append(float(wall))
    return history
