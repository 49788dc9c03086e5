"""Byte-identity pins for the DeathStarBench social-network DES.

Each case runs one request mix (the mixed workload or a single
request type) against the DRAM- or CXL-backed databases at a light,
a moderate and a saturated QPS, and hashes the ``dataclasses.asdict``
of every :class:`DsbResult`.  The hashes were recorded before the
runner moved from generator processes to engine callbacks; any change
to the order in which the run draws from its RNG stream moves at least
one of them.  :attr:`Engine.events_processed` is pinned per run as
well: each arrival and each completed stage visit is exactly one event.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src:. python tests/apps/test_dsb_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro import build_system, combined_testbed
from repro.apps.dsb import DsbRunner, RequestType
from repro.parallel import ParallelRunner
from repro.parallel.sweeps import run_sim_point
from tests.sim.engine_events import engine_events

QPS_POINTS = [200.0, 1200.0, 20000.0]
REQUESTS = 1000
MIXES = ["mixed"] + [request.value for request in RequestType]
BACKENDS = ["dram", "cxl"]


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _system():
    return build_system(combined_testbed())


def _runner(system, backend: str) -> DsbRunner:
    node = system.LOCAL_NODE if backend == "dram" else system.cxl_node_id
    return DsbRunner(system, database_node=node)


def _mix(label: str):
    return None if label == "mixed" else {RequestType(label): 1.0}


def _run_case(system, name: str) -> dict:
    """Run one pinned case; returns its result hash plus the per-run
    event counts."""
    backend, label = name.split(":")
    runner = _runner(system, backend)
    results = {}
    with engine_events() as events:
        for qps in QPS_POINTS:
            results[f"{qps:g}"] = dataclasses.asdict(
                runner.run(qps, mix=_mix(label), requests=REQUESTS))
    return {"results": _digest(results), "events": events}


CASES = [f"{backend}:{label}" for backend in BACKENDS for label in MIXES]

PINNED: dict[str, dict] = {
    "dram:mixed": {
        "results":
            "f5117ebe675423c1bd5413911fd5a53d3bb8b1b833d2875b82a65c8d3c86a9ab",
        "events": [4887, 4892, 4897],
    },
    "dram:compose-post": {
        "results":
            "be6b6a6127a8496dda35f9f49fb6dca441354c862d43455587ed46a97225b43e",
        "events": [10000, 10000, 10000],
    },
    "dram:read-user-timeline": {
        "results":
            "ebd548c3a8fe01dbfa92d91ed3d5c5d2cc83575030b5a29a72c7e1905d656132",
        "events": [4717, 4697, 4716],
    },
    "dram:read-home-timeline": {
        "results":
            "53325d7f1906bbf5f1a8a9c8b92b4e9e20aac243e6792e7cb7ea0e004e8c806d",
        "events": [4000, 4000, 4000],
    },
    "cxl:mixed": {
        "results":
            "51c8a0fa90c5c303870bf7e00e15c7818ab6efe9c140673fd0cba4e2650386e0",
        "events": [4887, 4899, 4873],
    },
    "cxl:compose-post": {
        "results":
            "e1ee8307568df683ae4ba710d55177c1ba8c3c98a45ad6dd6ee302e89158f654",
        "events": [10000, 10000, 10000],
    },
    "cxl:read-user-timeline": {
        "results":
            "da2e500e2be5b1637d48f23850a3403ef108a157d928f7fb3610e2b2a0b568af",
        "events": [4709, 4709, 4706],
    },
    "cxl:read-home-timeline": {
        "results":
            "59f2b9be0de2563283d62269920fbdb2f1d6bc7922e2328f819d06ec6126d707",
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
    runner = _runner(system, backend)
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
            with engine_events() as events:
                result = runner.run(qps, mix=_mix(label),
                                    requests=REQUESTS)
            assert events == [result.requests + visits[0]], (label, qps)


def _curves(system, parallel: bool):
    """Every (backend, mix) p99 curve, serially or from point units run
    on a two-worker pool (as Fig 10 runs them)."""
    qps = QPS_POINTS[:2]
    combos = [(_runner(system, backend),
               None if label == "mixed" else RequestType(label))
              for backend in BACKENDS for label in MIXES]
    if not parallel:
        return [runner.p99_curve(qps, request_type=request_type,
                                 requests=400)
                for runner, request_type in combos]
    specs = [runner.point_spec(point, request_type=request_type,
                               requests=400)
             for runner, request_type in combos for point in qps]
    results = ParallelRunner(2).map(run_sim_point, specs)
    return [runner.p99_series(qps, results[i * len(qps):(i + 1) * len(qps)],
                              request_type=request_type)
            for i, (runner, request_type) in enumerate(combos)]


def _curves_digest(curves) -> str:
    return _digest([dataclasses.asdict(curve) for curve in curves])


PINNED_CURVES = \
    "874d50bbdcc9ba02bc5e236099b351a63e6158e7f17c17f5d3d4e79167bff7a9"


def test_parallel_curves_equal_serial(system):
    serial = _curves(system, parallel=False)
    assert _curves(system, parallel=True) == serial
    assert _curves_digest(serial) == PINNED_CURVES


if __name__ == "__main__":
    pinned_system = _system()
    print(json.dumps({name: _run_case(pinned_system, name)
                      for name in CASES}, indent=4))
    print("curves:", _curves_digest(_curves(pinned_system, parallel=False)))
