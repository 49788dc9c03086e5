"""Byte-identity pins for the end-to-end CXL read and nt-store DES.

Each case pins four things separately, so a change that only reshapes
the event schedule can be told apart from one that changes the model:

* ``results`` hashes the ``dataclasses.asdict`` of every
  :class:`E2eResult` a run or sweep returns;
* ``metrics`` hashes the snapshot of the ``cxl.e2e.*`` metrics it
  records;
* ``events`` lists :attr:`Engine.events_processed` per run, as plain
  integers;
* traced cases pin the trace twice: ``trace`` hashes the Chrome JSON
  in emission order, and ``trace_content`` hashes its events sorted,
  so it holds as long as the same slices, instants and counters are
  recorded, whatever order they are recorded in.

The ``results`` and ``metrics`` hashes were recorded before the
pipeline callbacks were restructured for speed; any change to float
expression order, bank state or fault decisions moves at least one of
them.  Fault-plan runs cover the degraded-mode branches (CRC resends,
timeouts, poison, stalls, a slowed link); traced runs cover the tracer
branches.

The ``events`` counts and the emission-order ``trace`` hashes were
re-pinned when the read pipeline's device and S2M stages and the
nt-store pipeline's buffer-arrival stage were folded into ``send``,
each on the clock its own event used to carry.  A read attempt is now
one event (``complete``) plus one per fault retry, and an nt-store line
two (``thread_tick`` and ``drained``), plus one closing tick per
writer.  The folded stages record their slices and instants when the
send runs rather than when their old event fired, so only the
emission order moved: ``results``, ``metrics`` and ``trace_content``
kept the values recorded before the fold.  The fault-plan ``metrics``
and the ``trace`` hashes were re-pinned once more when the fault
injector stopped recording ``faults.*`` counters and the engine its
``sim.engine`` run slice: each new value is the old run's hash over
what is left, the ``cxl.e2e.*`` metrics and the trace less that slice.

Every read and nt-store run is served without the event queue
(``tests/cxl/test_e2e_engine_free.py``), so it runs no events.  Each
case holds every pin but ``events`` on that default path, and every pin
on the same runs forced onto the event queue (:func:`des_read_run`,
:func:`des_write_run`), which is where its ``events`` counts come from.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src:. python tests/cxl/test_e2e_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.faults import FaultInjector, FaultPlan
from repro.telemetry import Telemetry
from tests.cxl.test_e2e_engine_free import forced_des
from tests.sim.engine_events import engine_events

READ_THREADS = [1, 2, 4, 8, 12, 16, 32]
WRITE_THREADS = [1, 2, 4, 8, 16]
READ_LINES = 200
WRITE_LINES = 200

FAULTS = FaultPlan(crc_rate=0.02, poison_rate=0.01, timeout_rate=0.01,
                   stall_rate=0.02, link_width_fraction=0.5, seed=7)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_content(tracer) -> str:
    """Hash of the trace's events as a sorted multiset."""
    return _digest(sorted(
        json.dumps(event, sort_keys=True, separators=(",", ":"))
        for event in tracer.chrome_trace()["traceEvents"]))


def _case(name: str, telemetry: Telemetry):
    """The simulator, thread counts and lines per thread of a case."""
    if name == "read-open":
        return CxlEndToEndSim(telemetry=telemetry), READ_THREADS, READ_LINES
    if name == "read-closed":
        return (CxlEndToEndSim(closed_page=True, telemetry=telemetry),
                READ_THREADS, READ_LINES)
    if name == "write":
        return (CxlWriteEndToEndSim(telemetry=telemetry), WRITE_THREADS,
                WRITE_LINES)
    if name == "read-faults":
        return (CxlEndToEndSim(fault_plan=FAULTS, telemetry=telemetry),
                [8], READ_LINES)
    if name == "write-faults":
        return (CxlWriteEndToEndSim(fault_plan=FAULTS, telemetry=telemetry),
                [8], WRITE_LINES)
    if name == "traced-read-faults":
        return (CxlEndToEndSim(fault_plan=FAULTS, telemetry=telemetry),
                [4], 60)
    if name == "traced-write-faults":
        return (CxlWriteEndToEndSim(fault_plan=FAULTS, telemetry=telemetry),
                [4], 60)
    raise KeyError(name)


def _run_case(name: str) -> dict:
    """Run one pinned case; returns its result, metric and trace hashes
    plus the per-run event counts, which only runs forced onto the
    event queue have."""
    traced = name.startswith("traced")
    telemetry = Telemetry.on() if traced else Telemetry()
    sim, thread_counts, lines = _case(name, telemetry)
    results = {}
    with engine_events() as events:
        for threads in thread_counts:
            results[threads] = sim.run(threads=threads,
                                       lines_per_thread=lines)
    digests = {
        "results": _digest({str(threads): dataclasses.asdict(result)
                            for threads, result in results.items()}),
        "metrics": _digest(telemetry.registry.snapshot()),
    }
    if events:
        digests["events"] = events
    if traced:
        digests["trace"] = hashlib.sha256(
            telemetry.tracer.to_json().encode()).hexdigest()
        digests["trace_content"] = _trace_content(telemetry.tracer)
    return digests


PINNED: dict[str, dict] = {
    "read-open": {
        "results":
            "934330979172e5a02963a6f5015926a48109c82211d62c332fbde4bb960d6abb",
        "metrics":
            "95f4ec241c79fd567abd2f2e0526bcb6d8a43d1f61d68eea7d81344a07f5fac2",
        "events": [200, 400, 800, 1600, 2400, 3200, 6400],
    },
    "read-closed": {
        "results":
            "47cb99f4f2d88210aceb703109a7722c4923687d9c4fc18c8a52663d41c1c80a",
        "metrics":
            "68f2891891bcd121a7daaba8d098547773197f19e60362ae8c1364a4d00210a3",
        "events": [200, 400, 800, 1600, 2400, 3200, 6400],
    },
    "write": {
        "results":
            "e58b114dc0c59b3060c37e2e5e6db3e2f2a5491cfe477e309da507e44415f7cc",
        "metrics":
            "8604aff1db72fdf76d5c66ce6351d374d9714be4fed75ed53a59b87a88d70a22",
        "events": [401, 802, 1604, 3208, 6416],
    },
    "read-faults": {
        "results":
            "2d0ba442ee7ca87226d5b7381a29c7491c489a55c8bc3917a20b03a17794bf22",
        "metrics":
            "e5cc7a81a07a8d90b1c21a3af1409757ec4a3b20aceef3a3e3967d81675d1eee",
        "events": [1641],
    },
    "write-faults": {
        "results":
            "0ab8ef136e0b0af35a52af8037564d1320c8fcc5da81258a040aa33a63754046",
        "metrics":
            "7308e31f4b703a7fed3f622fe784916e91bcd24a7fd512fa04ff171a4b4aca81",
        "events": [3208],
    },
    "traced-read-faults": {
        "results":
            "62b7e83404f0005323e6ce7b69f2080713518d4fa877cd9d772babe5021d29d2",
        "metrics":
            "9e545409bdf8e0f83ff5dffbec5f15fc96d39c4f88125dc789297c215ba0d9b1",
        "events": [244],
        "trace":
            "6df948ae8e4a39695950680866a4f2e0c5f8def3bb6b25939be6a45b8a4d2670",
        "trace_content":
            "e32dab8056abf0c8e7eeb54ff439168f24bec92310bcb606d6b7cfa8f3910529",
    },
    "traced-write-faults": {
        "results":
            "4a688c8b43f44d421002b18eb0e8cd1c15e41ac059a07b9918327742f0d5fbda",
        "metrics":
            "9745fbd02f7733ba46099294725d50955dad9bad4e7fc279a660949aca60fb58",
        "events": [484],
        "trace":
            "3f3a9aad5b9b390bca49c9f3f756d5ffa985debee283d75b14f1e897bfd0b4d1",
        "trace_content":
            "c099e1a88e1ac48952d3d4cd3dce5348dc68a2e7f5867b8ebae43b517d58bed5",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_e2e_outputs_match_pins(name):
    assert _run_case(name) == {key: value
                               for key, value in PINNED[name].items()
                               if key != "events"}
    with forced_des():
        assert _run_case(name) == PINNED[name]


# Whether one call of each FaultInjector draw injected a fault.
FAULT_DRAWS = {
    "crc_transmissions": lambda sent, flits, *key: sent > flits,
    "timeout": lambda hit, *key: hit,
    "poisoned": lambda hit, *key: hit,
    "stall_ns": lambda stall, *key: stall > 0.0,
}


def test_fault_cases_exercise_every_fault_kind():
    """The degraded-mode pins are only meaningful if the plan fires."""
    hits = dict.fromkeys(FAULT_DRAWS, 0)
    with pytest.MonkeyPatch.context() as patch:
        for name, fired in FAULT_DRAWS.items():
            def counted(injector, *args, name=name, fired=fired,
                        draw=getattr(FaultInjector, name)):
                value = draw(injector, *args)
                hits[name] += fired(value, *args)
                return value

            patch.setattr(FaultInjector, name, counted)
        result = CxlEndToEndSim(fault_plan=FAULTS).run(
            threads=8, lines_per_thread=READ_LINES)
    assert result.faults_injected == result.faults_recovered > 0
    assert all(hits.values()), hits


if __name__ == "__main__":
    with forced_des():
        print(json.dumps({name: _run_case(name)
                          for name in ("read-open", "read-closed", "write",
                                       "read-faults", "write-faults",
                                       "traced-read-faults",
                                       "traced-write-faults")}, indent=4))
