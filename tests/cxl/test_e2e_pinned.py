"""Byte-identity pins for the end-to-end CXL read and nt-store DES.

Each case hashes the ``dataclasses.asdict`` of every :class:`E2eResult`
a run or sweep returns, plus the snapshot of the ``cxl.e2e.*``,
``faults.*`` and ``sim.engine.*`` metrics it records (the last pins
the executed event count).  The hashes were recorded before the
pipeline callbacks were restructured for speed; any change to event
order, float expression order, bank state or fault decisions moves at
least one of them.  Fault-plan runs cover the degraded-mode branches (CRC resends,
timeouts, poison, stalls, a slowed link); traced runs cover the tracer
branches, whose Chrome-trace JSON is pinned too.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/cxl/test_e2e_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.faults import FaultPlan
from repro.telemetry import Telemetry

READ_THREADS = [1, 2, 4, 8, 12, 16, 32]
WRITE_THREADS = [1, 2, 4, 8, 16]
READ_LINES = 200
WRITE_LINES = 200

PINNED_METRICS = ("cxl.e2e.", "faults.", "sim.engine.")

FAULTS = FaultPlan(crc_rate=0.02, poison_rate=0.01, timeout_rate=0.01,
                   stall_rate=0.02, link_width_fraction=0.5, seed=7)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _run_case(name: str) -> dict[str, str]:
    """Run one pinned case; returns its result, metric and trace hashes."""
    traced = name.startswith("traced")
    telemetry = Telemetry.on() if traced else Telemetry.metrics_only()
    if name == "read-open":
        results = CxlEndToEndSim(telemetry=telemetry).sweep(
            READ_THREADS, lines_per_thread=READ_LINES)
    elif name == "read-closed":
        results = CxlEndToEndSim(closed_page=True, telemetry=telemetry) \
            .sweep(READ_THREADS, lines_per_thread=READ_LINES)
    elif name == "write":
        results = CxlWriteEndToEndSim(telemetry=telemetry).sweep(
            WRITE_THREADS, lines_per_thread=WRITE_LINES)
    elif name == "read-faults":
        results = {8: CxlEndToEndSim(fault_plan=FAULTS,
                                     telemetry=telemetry)
                   .run(threads=8, lines_per_thread=READ_LINES)}
    elif name == "write-faults":
        results = {8: CxlWriteEndToEndSim(fault_plan=FAULTS,
                                          telemetry=telemetry)
                   .run(threads=8, lines_per_thread=WRITE_LINES)}
    elif name == "traced-read-faults":
        results = {4: CxlEndToEndSim(fault_plan=FAULTS,
                                     telemetry=telemetry)
                   .run(threads=4, lines_per_thread=60)}
    elif name == "traced-write-faults":
        results = {4: CxlWriteEndToEndSim(fault_plan=FAULTS,
                                          telemetry=telemetry)
                   .run(threads=4, lines_per_thread=60)}
    else:
        raise KeyError(name)
    snapshot = telemetry.registry.snapshot()
    digests = {
        "results": _digest({str(threads): dataclasses.asdict(result)
                            for threads, result in results.items()}),
        "metrics": _digest({key: value for key, value in snapshot.items()
                            if key.startswith(PINNED_METRICS)}),
    }
    if traced:
        digests["trace"] = hashlib.sha256(
            telemetry.tracer.to_json().encode()).hexdigest()
    return digests


PINNED: dict[str, dict[str, str]] = {
    "read-open": {
        "results":
            "934330979172e5a02963a6f5015926a48109c82211d62c332fbde4bb960d6abb",
        "metrics":
            "0d9e15ddd726d5cff3d85b4c3421bac357e17ab61322952815770969acdb7387",
    },
    "read-closed": {
        "results":
            "47cb99f4f2d88210aceb703109a7722c4923687d9c4fc18c8a52663d41c1c80a",
        "metrics":
            "b21cb625d1ad1310ae0253553c9017e351c23995db0d88c6c79c6a6272bf9a69",
    },
    "write": {
        "results":
            "e58b114dc0c59b3060c37e2e5e6db3e2f2a5491cfe477e309da507e44415f7cc",
        "metrics":
            "a76c45ef2efd183166338e65a56b2a0dadbdcb3d7a08f9f80fb70f84caaa394a",
    },
    "read-faults": {
        "results":
            "2d0ba442ee7ca87226d5b7381a29c7491c489a55c8bc3917a20b03a17794bf22",
        "metrics":
            "89fddfc6ece64426751bbc09eb20a998a7a7367f879f7a6546fade58cb06d447",
    },
    "write-faults": {
        "results":
            "0ab8ef136e0b0af35a52af8037564d1320c8fcc5da81258a040aa33a63754046",
        "metrics":
            "3c3f1d53154786bca0bb2546d7441de5de3298a9769f371c33d4e41ee9c9199a",
    },
    "traced-read-faults": {
        "results":
            "62b7e83404f0005323e6ce7b69f2080713518d4fa877cd9d772babe5021d29d2",
        "metrics":
            "4be1ca2ade2fcbb86e83af46a20475b3b1df486c760e3788de594f05c95cd74d",
        "trace":
            "e4ae9e2d08b9cf8bb9a8a3fced9183b8840edd71d41d160d4199bbfec09c67de",
    },
    "traced-write-faults": {
        "results":
            "4a688c8b43f44d421002b18eb0e8cd1c15e41ac059a07b9918327742f0d5fbda",
        "metrics":
            "5ec9505f6d70a3f49f2b934479f0b871b6918ab0eb60d7ec4c382d46a0957b0e",
        "trace":
            "ef13ba31ceecfc6317d42e5d9df5bda89b0aed7ea82cdce14e8f7ce8d7408277",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_e2e_outputs_match_pins(name):
    assert _run_case(name) == PINNED[name]


def test_fault_cases_exercise_every_fault_kind():
    """The degraded-mode pins are only meaningful if the plan fires."""
    telemetry = Telemetry.metrics_only()
    result = CxlEndToEndSim(fault_plan=FAULTS, telemetry=telemetry).run(
        threads=8, lines_per_thread=READ_LINES)
    assert result.faults_injected == result.faults_recovered > 0
    snapshot = telemetry.registry.snapshot()
    for counter in ("crc_errors", "timeouts", "poisoned_responses",
                    "stalls"):
        assert snapshot[f"faults.{counter}"]["value"] > 0, counter


if __name__ == "__main__":
    print(json.dumps({name: _run_case(name)
                      for name in ("read-open", "read-closed", "write",
                                   "read-faults", "write-faults",
                                   "traced-read-faults",
                                   "traced-write-faults")}, indent=4))
