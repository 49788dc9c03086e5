"""Byte-identity pins for the DeathStarBench social-network DES.

Each case runs one request mix (the mixed workload or a single
request type) against the DRAM- or CXL-backed databases at a light,
a moderate and a saturated QPS, and hashes the ``dataclasses.asdict``
of every :class:`DsbResult` plus the snapshot of the ``apps.dsb.*``
metrics the runs record.  The hashes were recorded before the runner
moved from generator processes to engine callbacks; any change to the
order in which the run draws from its RNG stream moves at least one
of them.  ``sim.engine.events_processed`` is pinned per run as well:
each arrival and each completed stage visit is exactly one event.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/apps/test_dsb_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import build_system, combined_testbed
from repro.apps.dsb import DsbRunner, RequestType
from repro.apps.dsb.runner import p99_curves
from repro.telemetry import Telemetry

QPS_POINTS = [200.0, 1200.0, 20000.0]
REQUESTS = 1000
MIXES = ["mixed"] + [request.value for request in RequestType]
BACKENDS = ["dram", "cxl"]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _system():
    return build_system(combined_testbed())


def _runner(system, backend: str, telemetry=None) -> DsbRunner:
    node = system.LOCAL_NODE if backend == "dram" else system.cxl_node_id
    return DsbRunner(system, database_node=node, telemetry=telemetry)


def _mix(label: str):
    return None if label == "mixed" else {RequestType(label): 1.0}


def _run_case(system, name: str) -> dict:
    """Run one pinned case; returns its result and metric hashes plus
    the per-run event counts."""
    backend, label = name.split(":")
    telemetry = Telemetry.metrics_only()
    runner = _runner(system, backend, telemetry)
    results = {}
    events = []
    for qps in QPS_POINTS:
        results[f"{qps:g}"] = dataclasses.asdict(
            runner.run(qps, mix=_mix(label), requests=REQUESTS))
        events.append(telemetry.registry.snapshot()
                      ["sim.engine.events_processed"]["value"])
    snapshot = telemetry.registry.snapshot()
    return {
        "results": _digest(results),
        "metrics": _digest({key: value for key, value in snapshot.items()
                            if key.startswith("apps.dsb.")}),
        "events": [int(count) for count in events],
    }


CASES = [f"{backend}:{label}" for backend in BACKENDS for label in MIXES]

PINNED: dict[str, dict] = {
    "dram:mixed": {
        "results":
            "f5117ebe675423c1bd5413911fd5a53d3bb8b1b833d2875b82a65c8d3c86a9ab",
        "metrics":
            "41f06d159517938768124b78ff7ab1fe2ab7f6ecae957d32911e5ff547382347",
        "events": [4887, 4892, 4897],
    },
    "dram:compose-post": {
        "results":
            "be6b6a6127a8496dda35f9f49fb6dca441354c862d43455587ed46a97225b43e",
        "metrics":
            "57f7ddbefc8e1e411f2d218a0405b04ba5171961383884b3e5d624319fbbd012",
        "events": [10000, 10000, 10000],
    },
    "dram:read-user-timeline": {
        "results":
            "ebd548c3a8fe01dbfa92d91ed3d5c5d2cc83575030b5a29a72c7e1905d656132",
        "metrics":
            "1faeed355d725c76c9749a0a58c8afd6178409d0dcd5bf3084ca38b11f42c7b4",
        "events": [4717, 4697, 4716],
    },
    "dram:read-home-timeline": {
        "results":
            "53325d7f1906bbf5f1a8a9c8b92b4e9e20aac243e6792e7cb7ea0e004e8c806d",
        "metrics":
            "19072c2de21d82d8800a58e1b55756a58065933429e0f91c037edf69b71ca538",
        "events": [4000, 4000, 4000],
    },
    "cxl:mixed": {
        "results":
            "51c8a0fa90c5c303870bf7e00e15c7818ab6efe9c140673fd0cba4e2650386e0",
        "metrics":
            "1ec71dd6889decb60820cf06d34279fc5b638223a1036e1cdc478211a3a158e1",
        "events": [4887, 4899, 4873],
    },
    "cxl:compose-post": {
        "results":
            "e1ee8307568df683ae4ba710d55177c1ba8c3c98a45ad6dd6ee302e89158f654",
        "metrics":
            "4779df9f7995160166ea1c968ce413a4867e996f931bbe25e46f8c886de5fadc",
        "events": [10000, 10000, 10000],
    },
    "cxl:read-user-timeline": {
        "results":
            "da2e500e2be5b1637d48f23850a3403ef108a157d928f7fb3610e2b2a0b568af",
        "metrics":
            "b7ab640402d35443a2957bd0838f5eea97c1809229206fab68df1f5b0fe473a8",
        "events": [4709, 4709, 4706],
    },
    "cxl:read-home-timeline": {
        "results":
            "59f2b9be0de2563283d62269920fbdb2f1d6bc7922e2328f819d06ec6126d707",
        "metrics":
            "d79336ef7e806de3b19e8b32e402882ece510c032eaf80bb87cd90c754ae026c",
        "events": [4000, 4000, 4000],
    },
}


@pytest.fixture(scope="module")
def system():
    return _system()


@pytest.mark.parametrize("name", CASES)
def test_dsb_outputs_match_pins(system, name):
    assert _run_case(system, name) == PINNED[name]


@pytest.mark.parametrize("backend", BACKENDS)
def test_every_case_reaches_saturation(system, backend):
    """The pins cover the overloaded regime, not just light load."""
    runner = _runner(system, backend)
    for label in MIXES:
        result = runner.run(QPS_POINTS[-1], mix=_mix(label),
                            requests=REQUESTS)
        assert result.saturated, label


@pytest.mark.parametrize("backend", BACKENDS)
def test_events_equal_arrivals_plus_stage_visits(system, backend):
    """One event per arrival and one per finished visit, no more."""
    telemetry = Telemetry.metrics_only()
    runner = _runner(system, backend, telemetry)
    visits = [0]
    for stage in runner.network.stages.values():
        sample = stage.sample_service_ns

        def counted(rng, sample=sample):
            visits[0] += 1
            return sample(rng)

        stage.sample_service_ns = counted
    for label in MIXES:
        for qps in QPS_POINTS:
            visits[0] = 0
            result = runner.run(qps, mix=_mix(label), requests=REQUESTS)
            events = telemetry.registry.snapshot()[
                "sim.engine.events_processed"]["value"]
            assert events == result.requests + visits[0], (label, qps)


def _curves(system, jobs: int):
    combos = [(_runner(system, backend),
               None if label == "mixed" else RequestType(label))
              for backend in BACKENDS for label in MIXES]
    return p99_curves(combos, QPS_POINTS[:2], requests=400, jobs=jobs)


def _curves_digest(curves) -> str:
    return _digest([dataclasses.asdict(curve) for curve in curves])


PINNED_CURVES = \
    "874d50bbdcc9ba02bc5e236099b351a63e6158e7f17c17f5d3d4e79167bff7a9"


def test_parallel_curves_equal_serial(system):
    serial = _curves(system, jobs=1)
    assert _curves(system, jobs=2) == serial
    assert _curves_digest(serial) == PINNED_CURVES


if __name__ == "__main__":
    pinned_system = _system()
    print(json.dumps({name: _run_case(pinned_system, name)
                      for name in CASES}, indent=4))
    print("curves:", _curves_digest(_curves(pinned_system, jobs=1)))
