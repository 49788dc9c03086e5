"""Oracle for ``ClusterSim``'s engine-free serving of policy-free runs.

A run with no policy, hash-shard routing, no link-down and one worker
per host sends every request to its owner on one attempt, so each host
is an independent FIFO single-server queue with known arrivals and
service times.  ``ClusterSim.run`` serves such a
run with a per-host Lindley recursion instead of the event queue.  This
module forces the event queue on the same inputs, by patching the
private eligibility predicate, and checks over random fleets, pools,
loads, fault plans and span settings that both give the same
``repr(ClusterResult)`` and the same span export.

The recursion keeps every float operation of the event loop, but two
orders follow from the event loop's sequence numbers: ``service_total``
is summed in grant order and span rows are recorded in completion
order.  The recursion takes them from stable argsorts of the start and
finish times, which break ties by request index.  When two requests
start, or finish, at exactly the same float time, the event loop may
order them otherwise, and then only what no order can move must match:
the result but its mean service.  Such a tie needs two float sums to
coincide; each example reports whether it had one.
"""

from __future__ import annotations

import json
from dataclasses import replace

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.cluster.sim as cluster_sim
from repro.cluster import ClusterSim, ClusterTopology, LinkDown
from repro.cluster.resilience import PRESETS
from repro.config import hetero_pooled_testbed
from repro.faults import FaultPlan
from repro.telemetry import SpanConfig, SpanRecorder
from tests.sim.engine_events import engine_events

fault_plans = st.builds(
    FaultPlan,
    stall_rate=st.sampled_from((0.0, 0.05, 0.3)),
    stall_ns=st.sampled_from((500.0, 80_000.0)),
    timeout_rate=st.sampled_from((0.0, 0.02, 0.2)),
    poison_rate=st.sampled_from((0.0, 0.01, 0.1)),
    seed=st.integers(min_value=0, max_value=50))


@st.composite
def cluster_runs(draw):
    """A fleet, its per-host fault plans, a load point and span knobs."""
    hosts = draw(st.integers(min_value=1, max_value=5))
    devices = draw(st.sampled_from((1, 2, 3)))
    topology = {
        "num_hosts": hosts,
        "keys_per_host": draw(st.sampled_from((500, 4_000))),
        "pool_share": draw(st.floats(min_value=0.0, max_value=1.0)),
        "testbed": hetero_pooled_testbed(devices) if devices > 1 else None,
    }
    plans = draw(st.dictionaries(st.integers(min_value=0,
                                             max_value=hosts - 1),
                                 fault_plans, max_size=hosts))
    # Light load to overload: a fleet host serves ~300-400k QPS.
    load = {"qps": draw(st.floats(min_value=2e4, max_value=2.5e6)) * hosts,
            "theta": draw(st.floats(min_value=0.05, max_value=0.999)),
            "requests": draw(st.integers(min_value=1, max_value=400)),
            "write_fraction": draw(st.floats(min_value=0.0,
                                             max_value=1.0))}
    spans = draw(st.none() | st.builds(
        SpanConfig, exemplars=st.integers(min_value=1, max_value=400),
        windows=st.integers(min_value=0, max_value=4)))
    seed = draw(st.integers(min_value=0, max_value=1_000))
    return topology, plans, load, spans, seed


def _observe(topology: dict, plans: dict, load: dict,
             spans: SpanConfig | None, seed: int, *, events: bool):
    """One run's result and span export; with ``events`` the run is
    forced onto the event queue.  Also returns whether two requests of
    the engine-free run started or finished at exactly the same float
    time."""
    recorder = SpanRecorder(spans) if spans is not None else None
    sim = ClusterSim(ClusterTopology(**topology), seed=seed,
                     fault_plans=plans, spans=recorder)
    times = []
    lindley = cluster_sim._lindley

    def spy(*args):
        times.append(lindley(*args))
        return times[-1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cluster_sim, "_lindley", spy)
        if events:
            patch.setattr(ClusterSim, "_engine_free", lambda self: False)
        result = sim.run(**load)
    assert bool(times) != events
    tied = any(len(set(values)) < len(values)
               for values in (times[0] if times else ()))
    export = json.dumps(recorder.export()) \
        if recorder is not None else None
    return (repr(result), export), result, tied


@settings(max_examples=120, deadline=None)
@given(cluster_runs())
def test_engine_free_run_matches_the_event_queue(run):
    fast, fast_result, tied = _observe(*run, events=False)
    reference, des_result, _ = _observe(*run, events=True)
    event("exact tie" if tied else "no tie")
    if tied:
        assert replace(fast_result, mean_service_ns=0.0) \
            == replace(des_result, mean_service_ns=0.0)
    else:
        assert fast == reference


def _engine_runs(**changes) -> int:
    """How many times ``Engine.run`` ran for one small policy-free run
    with ``changes`` applied to it."""
    changes = dict(changes)
    topology = ClusterTopology(3, keys_per_host=2_000,
                               workers=changes.pop("workers", 1))
    sim = ClusterSim(topology, seed=3,
                     fault_plans={0: FaultPlan(stall_rate=0.1, seed=1)},
                     **changes)
    with engine_events() as runs:
        sim.run(150_000.0, requests=300)
    return len(runs)


@pytest.mark.parametrize("changes", [
    {"policy": PRESETS["deadline"]},
    {"router": "least-loaded"},
    {"link_down": LinkDown(1)},
    {"workers": 2},
], ids=["policy", "least-loaded", "link-down", "workers"])
def test_each_ineligible_run_still_uses_the_event_queue(changes):
    assert _engine_runs(**changes) == 1


def test_eligible_run_uses_no_event_queue():
    assert _engine_runs() == 0
    assert _engine_runs(policy=PRESETS["none"]) == 0
