"""Canonical JSON: the one content digest and the one artifact writer.

Cache keys, journal checksums, ledger hashes, span digests and
scenario hashes all hash the same canonical form (sorted keys, no
whitespace); each caller keeps its own prefix length of the SHA-256
hex.  Saved artifacts (``--save`` payloads, profiles, metrics
snapshots, report baselines) are written as indented, key-sorted JSON
plus a trailing newline, so re-runs produce byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path


def canonical_digest(obj) -> str:
    """SHA-256 hex of ``obj``'s canonical JSON."""
    canonical = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_json(path, obj) -> Path:
    """Write ``obj`` as indented, key-sorted JSON (parents created);
    returns the path written."""
    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    target.write_text(json.dumps(obj, indent=2, sort_keys=True) + "\n")
    return target
