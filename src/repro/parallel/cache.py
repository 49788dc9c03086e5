"""A content-addressed result cache under ``results/.cache/``.

Keys
----
A cache key is the SHA-256 of the canonical JSON of::

    {"experiment": <id>, "config": <config dict>, "version": <fingerprint>}

``config`` is whatever parameter dict fully determines the result
(``{"fast": true}`` for the experiment runner).  The fingerprint
defaults to :func:`package_fingerprint` — the package version *plus* a
digest of every ``repro`` source file — so editing any simulator module
invalidates every cached result automatically; there is no staleness
window between code changes and version bumps.

Entries are single JSON files named ``<key>.json`` holding the key
material (for ``repro-experiments --cache-info`` style inspection and
debugging), the payload, and a ``sha256`` checksum of the payload's
canonical JSON.  Writes are atomic (temp file + rename), so a parallel
run racing on the same key leaves one valid entry.

Quarantine (docs/RESILIENCE.md)
-------------------------------
Reads verify the checksum.  A corrupt, truncated, or
checksum-mismatched entry is **quarantined** — moved to
``<root>/quarantine/`` for post-mortem rather than deleted — and the
read reports a miss, so the unit recomputes and the sweep never
crashes on bad cache state.  The optional ``on_quarantine(key, path,
reason)`` callback is how the CLIs turn a quarantine into a ledger
event and a ``cache-quarantined`` log line.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path

from ..canonical import canonical_digest, write_json
from ..errors import ExperimentError

DEFAULT_CACHE_DIR = Path("results") / ".cache"
CACHE_DIR_ENV = "REPRO_CACHE_DIR"
QUARANTINE_DIR_NAME = "quarantine"

_fingerprint_cache: str | None = None


def package_fingerprint() -> str:
    """``<version>+src.<digest12>`` over every ``repro`` source file.

    The digest covers file *contents* (sorted by package-relative path,
    so it is checkout-location independent).  Computed once per
    process.
    """
    global _fingerprint_cache
    if _fingerprint_cache is None:
        import repro

        root = Path(repro.__file__).resolve().parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            digest.update(str(path.relative_to(root)).encode())
            digest.update(b"\0")
            digest.update(path.read_bytes())
        _fingerprint_cache = (
            f"{repro.__version__}+src.{digest.hexdigest()[:12]}")
    return _fingerprint_cache


def result_key(experiment_id: str, config: dict,
               version: str | None = None) -> str:
    """The content address for one (experiment, config, version) triple."""
    if not experiment_id:
        raise ExperimentError("cache key needs an experiment id")
    material = {
        "experiment": experiment_id,
        "config": config,
        "version": version if version is not None
        else package_fingerprint(),
    }
    return canonical_digest(material)


def payload_checksum(payload: dict) -> str:
    """SHA-256 of a payload's canonical JSON (the entry checksum)."""
    return canonical_digest(payload)


class ResultCache:
    """Get/put JSON payloads by content address.

    The directory defaults to ``results/.cache`` under the current
    working directory; the ``REPRO_CACHE_DIR`` environment variable
    overrides it (used by tests and CI to isolate runs).

    ``on_quarantine(key, quarantine_path, reason)`` is called once per
    entry that fails read verification, after the entry has been moved
    aside; ``reason`` is one of ``"unreadable"`` (not JSON / not an
    entry), ``"checksum-mismatch"``, or ``"missing-checksum"``.
    """

    def __init__(self, root: Path | str | None = None, *,
                 on_quarantine=None) -> None:
        if root is None:
            root = os.environ.get(CACHE_DIR_ENV) or DEFAULT_CACHE_DIR
        self.root = Path(root)
        self.on_quarantine = on_quarantine

    def path(self, key: str) -> Path:
        return self.root / f"{key}.json"

    @property
    def quarantine_dir(self) -> Path:
        return self.root / QUARANTINE_DIR_NAME

    def _quarantine(self, key: str, path: Path, reason: str) -> None:
        """Move a bad entry aside; never raises (a failed move deletes)."""
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            if target.exists():
                target = target.with_suffix(
                    f".{os.getpid()}{target.suffix}")
            os.replace(path, target)
        except OSError:
            try:
                path.unlink()
            except OSError:
                pass
        if self.on_quarantine is not None:
            self.on_quarantine(key, str(target), reason)

    def get(self, key: str) -> dict | None:
        """The cached payload, or ``None`` on miss/quarantine.

        Every read verifies the entry's payload checksum; a corrupt,
        truncated, or tampered entry is moved to the quarantine
        directory (reported through ``on_quarantine``) and reads as a
        miss, so the caller recomputes instead of crashing — or worse,
        trusting a silently-damaged figure.
        """
        path = self.path(key)
        try:
            entry = json.loads(path.read_text())
            payload = entry["payload"]
            checksum = entry.get("sha256")
        except FileNotFoundError:
            return None
        except (json.JSONDecodeError, KeyError, TypeError, OSError):
            self._quarantine(key, path, "unreadable")
            return None
        if not isinstance(entry, dict) or not isinstance(payload, dict):
            self._quarantine(key, path, "unreadable")
            return None
        if checksum is None:
            # Entries predate checksums only across a source change,
            # which already re-keys them — an entry under a *current*
            # key with no checksum was hand-edited or damaged.
            self._quarantine(key, path, "missing-checksum")
            return None
        if checksum != payload_checksum(payload):
            self._quarantine(key, path, "checksum-mismatch")
            return None
        return payload

    def put(self, key: str, payload: dict, *,
            key_material: dict | None = None) -> Path:
        """Store ``payload`` under ``key`` atomically; returns the path."""
        path = self.path(key)
        entry = {"key": key, "key_material": key_material or {},
                 "sha256": payload_checksum(payload),
                 "payload": payload}
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        write_json(tmp, entry)
        os.replace(tmp, path)
        return path

    def __contains__(self, key: str) -> bool:
        return self.path(key).is_file()

    def __len__(self) -> int:
        return len(list(self.root.glob("*.json"))) \
            if self.root.is_dir() else 0

    def clear(self) -> int:
        """Delete every entry; returns how many were removed."""
        removed = 0
        if self.root.is_dir():
            for path in self.root.glob("*.json"):
                try:
                    path.unlink()
                    removed += 1
                except OSError:
                    pass
        return removed
