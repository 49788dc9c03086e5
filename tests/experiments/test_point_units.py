"""Every point experiment: its ``--jobs 2`` units equal a serial run.

``repro-experiments`` runs each sweep point of a point experiment as one
unit on the suite's worker pool and combines the points in the parent.
This runs every point experiment in the registry once that way (the
spanned ones a second time with ``--spans``) and compares each saved
``<id>.json`` byte for byte with an in-process ``Experiment.run``.
"""

import json

import pytest

from repro.experiments import REGISTRY
from repro.experiments.runner import main
from repro.telemetry.spans import SpanConfig

POINT_IDS = sorted(eid for eid, experiment in REGISTRY.items()
                   if experiment.points)
SPANNED_IDS = [eid for eid in POINT_IDS if REGISTRY[eid].accepts_spans]


def test_every_shardable_experiment_declares_points():
    assert {"fig6", "fig10", "degraded-cxl", "cluster-pooling",
            "cluster-degraded", "cluster-resilient",
            "cluster-retry-storm"} <= set(POINT_IDS)
    assert all(eid in POINT_IDS for eid in REGISTRY
               if eid.startswith("scn-"))


@pytest.mark.parametrize("spans", [False, True], ids=["plain", "spans"])
def test_jobs2_point_units_equal_serial_run(spans, tmp_path, monkeypatch,
                                            capsys):
    monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "2")
    ids = SPANNED_IDS if spans else POINT_IDS
    save = tmp_path / "save"
    argv = [*ids, "--no-cache", "--jobs", "2", "--no-progress",
            "--save", str(save)] + (["--spans"] if spans else [])
    assert main(argv) == 0
    capsys.readouterr()
    span_config = SpanConfig() if spans else None
    for eid in ids:
        result = REGISTRY[eid].run(fast=True, span_config=span_config)
        expected = json.dumps(result.to_dict(), indent=2,
                              sort_keys=True) + "\n"
        assert (save / f"{eid}.json").read_text() == expected, eid
