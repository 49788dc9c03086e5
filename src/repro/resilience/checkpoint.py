"""Checkpoint journals: resume an interrupted sweep, byte-identically.

A sweep journals every completed unit result to
``results/.checkpoint/<suite-hash>.jsonl`` as it lands — one JSON line
per unit, flushed immediately, so even a SIGKILL keeps the completed
prefix.  ``repro-experiments --resume`` replays journaled units and
runs only the remainder; because journal payloads round-trip exactly
(the same :meth:`~repro.experiments.registry.ExperimentResult.payload`
format the result cache stores), the resumed run's output is
byte-identical to an uninterrupted one.

The **suite hash** is the journal's content address: the SHA-256 of
the canonical JSON of ``{"ids": [...], "config": {...}, "version":
<package fingerprint>}``.  Any change to the id list, the parameters
(``--full``, ``--faults``), or the source tree resolves to a different
journal — a stale checkpoint can never leak into a changed sweep, the
same staleness rule the PR 2 result cache enforces.

Journal lines carry a payload checksum; a truncated or bit-flipped
line (crash mid-append, disk trouble) is skipped on load rather than
poisoning the resume — the unit simply reruns.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from ..canonical import canonical_digest
from ..errors import ResilienceError
from ..parallel.cache import package_fingerprint

DEFAULT_CHECKPOINT_DIR = Path("results") / ".checkpoint"
CHECKPOINT_DIR_ENV = "REPRO_CHECKPOINT_DIR"

JOURNAL_SCHEMA = 1


def checkpoint_dir(root: Path | str | None = None) -> Path:
    """Resolve the journal directory (arg > env var > default)."""
    if root is not None:
        return Path(root)
    override = os.environ.get(CHECKPOINT_DIR_ENV)
    return Path(override) if override else DEFAULT_CHECKPOINT_DIR


def suite_hash(ids, config: dict, version: str | None = None) -> str:
    """Content address of one sweep: ids + config + source fingerprint."""
    ids = list(ids)
    if not ids:
        raise ResilienceError("suite hash needs at least one unit id")
    material = {
        "ids": ids,
        "config": config,
        "version": version if version is not None
        else package_fingerprint(),
    }
    return canonical_digest(material)


def _payload_digest(payload: dict) -> str:
    return canonical_digest(payload)[:16]


class CheckpointJournal:
    """Append/load completed unit results for one suite hash.

    Appends are line-buffered and flushed per record; loads are
    tolerant (corrupt or checksum-mismatched lines drop that unit
    only).  A unit journaled twice (e.g. a resume that re-ran it after
    a corrupt line) resolves to the **last** good record.
    """

    def __init__(self, suite: str,
                 root: Path | str | None = None) -> None:
        if not suite or any(ch in suite for ch in "/\\"):
            raise ResilienceError(f"bad suite hash {suite!r}")
        self.suite = suite
        self.root = checkpoint_dir(root)

    @property
    def path(self) -> Path:
        return self.root / f"{self.suite}.jsonl"

    def exists(self) -> bool:
        return self.path.is_file()

    def record(self, unit_id: str, payload: dict) -> None:
        """Append one completed unit's payload (flushed immediately)."""
        if not unit_id:
            raise ResilienceError("journal record needs a unit id")
        line = json.dumps(
            {"schema": JOURNAL_SCHEMA, "unit": unit_id,
             "sha256": _payload_digest(payload), "payload": payload},
            sort_keys=True, separators=(",", ":"))
        self.root.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())

    def load(self) -> dict[str, dict]:
        """``{unit_id: payload}`` for every intact journaled unit."""
        loaded: dict[str, dict] = {}
        try:
            text = self.path.read_text()
        except (FileNotFoundError, OSError):
            return loaded
        for line in text.splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                continue
            if not isinstance(entry, dict) \
                    or entry.get("schema") != JOURNAL_SCHEMA:
                continue
            unit = entry.get("unit")
            payload = entry.get("payload")
            if not isinstance(unit, str) \
                    or not isinstance(payload, dict):
                continue
            if entry.get("sha256") != _payload_digest(payload):
                continue
            loaded[unit] = payload
        return loaded

    def __len__(self) -> int:
        return len(self.load())

    def discard(self) -> bool:
        """Remove the journal (after a fully-successful sweep)."""
        try:
            self.path.unlink()
            return True
        except FileNotFoundError:
            return False
        except OSError:
            return False
