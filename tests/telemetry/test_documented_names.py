"""docs/TELEMETRY.md names only metrics and tracks a run produces.

Every metric name in the naming-examples block and every track in the
standard-tracks table must come out of ``memo bw --trace --metrics`` or
``memo replay --trace``: only the simulators ``memo`` runs take a
telemetry session.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.memo.cli import main as memo_main
from repro.telemetry.report import trace_track_names

DOC = Path(__file__).resolve().parents[2] / "docs" / "TELEMETRY.md"

BW_ARGV = ["bw", "--scheme", "CXL", "--threads", "1", "2", "4", "8"]
# A 64 B random replay hits in L1d and L2, so it names cache levels.
REPLAY_ARGV = ["replay", "--pattern", "random", "--block", "64"]


def documented_metrics(text: str) -> set[str]:
    """The names in the fenced block after "Examples across layers:"."""
    after = text.split("Examples across layers:", 1)[1]
    return set(after.split("```", 2)[1].split())


def documented_tracks(text: str) -> set[str]:
    """The first column of the table headed ``| track``."""
    rows = text.split("\n| track", 1)[1].splitlines()[2:]
    tracks = set()
    for row in rows:
        if not row.startswith("| `"):
            break
        tracks.add(row.split("`")[1])
    return tracks


def memo_names(tmp_path: Path, argv: list[str]) -> tuple[set, set]:
    """Metric names and trace tracks one traced ``memo`` run produces."""
    trace = tmp_path / f"{argv[0]}.json"
    assert memo_main(argv + ["--trace", str(trace), "--metrics",
                             "--no-ledger"]) == 0
    metrics = json.loads(trace.with_suffix(".metrics.json").read_text())
    return set(metrics), trace_track_names(json.loads(trace.read_text()))


@pytest.fixture(scope="module")
def produced(tmp_path_factory) -> tuple[set, set]:
    tmp_path = tmp_path_factory.mktemp("names")
    metrics: set[str] = set()
    tracks: set[str] = set()
    for argv in (BW_ARGV, REPLAY_ARGV):
        run_metrics, run_tracks = memo_names(tmp_path, argv)
        metrics |= run_metrics
        tracks |= run_tracks
    return metrics, tracks


def test_the_doc_lists_names_to_check():
    text = DOC.read_text()
    assert len(documented_metrics(text)) >= 6
    assert len(documented_tracks(text)) >= 4


def test_every_example_metric_is_produced(produced):
    metrics, _ = produced
    missing = documented_metrics(DOC.read_text()) - metrics
    assert not missing, f"documented but never produced: {sorted(missing)}"


def test_every_documented_track_is_produced(produced):
    _, tracks = produced
    missing = documented_tracks(DOC.read_text()) - tracks
    assert not missing, f"documented but never produced: {sorted(missing)}"
