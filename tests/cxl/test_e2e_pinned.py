"""Byte-identity pins for the end-to-end CXL read and nt-store DES.

Each case pins four things separately, so a change that only reshapes
the event schedule can be told apart from one that changes the model:

* ``results`` hashes the ``dataclasses.asdict`` of every
  :class:`E2eResult` a run or sweep returns;
* ``metrics`` hashes the snapshot of the ``cxl.e2e.*`` and ``faults.*``
  metrics it records;
* ``events`` lists ``sim.engine.events_processed`` per run, as plain
  integers;
* traced cases pin the trace twice: ``trace`` hashes the Chrome JSON
  in emission order, and ``trace_content`` hashes its events sorted,
  without the ``sim.engine`` run slice's ``events`` argument, so it
  holds as long as the same slices, instants and counters are
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
kept the values recorded before the fold.

Every read and nt-store run is served without the event queue
(``tests/cxl/test_e2e_engine_free.py``), so it runs no events.  Each
case holds its ``results`` and ``metrics`` pins on that default path,
and every pin on the same runs forced onto the event queue
(:func:`des_read_run`, :func:`des_write_run`), which is where its
``events`` counts and ``trace`` hashes come from.  A traced run on the
default path records that reference's trace less the engine's
``sim.engine`` run slice.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src:. python tests/cxl/test_e2e_pinned.py
"""

from __future__ import annotations

import dataclasses
import hashlib
import json

import pytest

from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.faults import FaultPlan
from repro.telemetry import Telemetry
from tests.cxl.test_e2e_engine_free import forced_des

READ_THREADS = [1, 2, 4, 8, 12, 16, 32]
WRITE_THREADS = [1, 2, 4, 8, 16]
READ_LINES = 200
WRITE_LINES = 200

PINNED_METRICS = ("cxl.e2e.", "faults.")

FAULTS = FaultPlan(crc_rate=0.02, poison_rate=0.01, timeout_rate=0.01,
                   stall_rate=0.02, link_width_fraction=0.5, seed=7)


def _digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _trace_content(tracer) -> str:
    """Hash of the trace's events as a sorted multiset.

    The ``sim.engine`` run slice's ``events`` argument is left out: it
    is the executed event count, pinned on its own.
    """
    lines = []
    for event in tracer.chrome_trace()["traceEvents"]:
        if event.get("cat") == "sim.engine" and event["name"] == "run":
            event = dict(event, args={key: value for key, value
                                      in event["args"].items()
                                      if key != "events"})
        lines.append(json.dumps(event, sort_keys=True,
                                separators=(",", ":")))
    return _digest(sorted(lines))


def _without_engine(tracer) -> dict:
    """The Chrome trace less the ``sim.engine`` track: its run slice
    and its metadata."""
    trace = tracer.chrome_trace()
    if "sim.engine" not in tracer.tracks:
        return trace
    tid = tracer.tracks.index("sim.engine") + 1
    return dict(trace, traceEvents=[
        event for event in trace["traceEvents"] if event["tid"] != tid])


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


def _run_case(name: str) -> tuple[dict, Telemetry]:
    """Run one pinned case; returns its result, metric and trace hashes
    plus the per-run event counts, which only runs forced onto the
    event queue have, and the telemetry it recorded into."""
    traced = name.startswith("traced")
    telemetry = Telemetry.on() if traced else Telemetry.metrics_only()
    sim, thread_counts, lines = _case(name, telemetry)
    results = {}
    events = []
    for threads in thread_counts:
        results[threads] = sim.run(threads=threads, lines_per_thread=lines)
        gauge = telemetry.registry.snapshot().get(
            "sim.engine.events_processed")
        if gauge is not None:
            events.append(int(gauge["value"]))
    snapshot = telemetry.registry.snapshot()
    digests = {
        "results": _digest({str(threads): dataclasses.asdict(result)
                            for threads, result in results.items()}),
        "metrics": _digest({key: value for key, value in snapshot.items()
                            if key.startswith(PINNED_METRICS)}),
    }
    if events:
        digests["events"] = events
    if traced:
        digests["trace"] = hashlib.sha256(
            telemetry.tracer.to_json().encode()).hexdigest()
        digests["trace_content"] = _trace_content(telemetry.tracer)
    return digests, telemetry


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
            "cc2ad25441e3702292dd3c9d1d0ddf89ea8969a250371f88783061a124d74d4b",
        "events": [1641],
    },
    "write-faults": {
        "results":
            "0ab8ef136e0b0af35a52af8037564d1320c8fcc5da81258a040aa33a63754046",
        "metrics":
            "f2eb7e1f67e9252a790056f216c065226165812a001a62eb41d1a642ff24cce6",
        "events": [3208],
    },
    "traced-read-faults": {
        "results":
            "62b7e83404f0005323e6ce7b69f2080713518d4fa877cd9d772babe5021d29d2",
        "metrics":
            "fc79f2eba45e4ac57bb1dad86ec302fad84d845023dc2bac8412ef67487460b6",
        "events": [244],
        "trace":
            "f791366d67686235c907568fc5af2717627d8a8a4b0e7250a9faf19716974395",
        "trace_content":
            "4e1c0d201fa69436126a04cae66b724ff2347ee5f8144843045419cacf52e4c5",
    },
    "traced-write-faults": {
        "results":
            "4a688c8b43f44d421002b18eb0e8cd1c15e41ac059a07b9918327742f0d5fbda",
        "metrics":
            "9b2659603f3c1f13702c2c2ad1966f72ffe9165d7d87881915a01fa209b03e68",
        "events": [484],
        "trace":
            "10c4e6c27da19062363d427dc403a1b2f7d6223bcde756923a95ac0bc1777f81",
        "trace_content":
            "7f729cc176aeb505b2800a5b2105e0e7d56148f756caf32a2de951c1d70c5277",
    },
}


@pytest.mark.parametrize("name", sorted(PINNED))
def test_e2e_outputs_match_pins(name):
    digests, telemetry = _run_case(name)
    assert {key: value for key, value in digests.items()
            if key not in ("trace", "trace_content")} \
        == {key: PINNED[name][key] for key in ("results", "metrics")}
    with forced_des():
        reference, reference_telemetry = _run_case(name)
    assert reference == PINNED[name]
    assert _without_engine(telemetry.tracer) \
        == _without_engine(reference_telemetry.tracer)


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
    with forced_des():
        print(json.dumps({name: _run_case(name)[0]
                          for name in ("read-open", "read-closed", "write",
                                       "read-faults", "write-faults",
                                       "traced-read-faults",
                                       "traced-write-faults")}, indent=4))
