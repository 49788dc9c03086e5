"""Byte-identity pins for the ClusterSim request lifecycle.

Each case hashes ``repr`` of the :class:`ClusterResult` a run returns
and, with spans on, the span export.  The span recorder
keeps every request as an exemplar and slices the run into windows,
so the export pins each request's nonzero segment waterfall, the
record-order component folds and the per-window breakdown.  The hashes
were recorded before the per-request host cost of ``ClusterSim.run``
was cut; any change to event order, float expression order, placement,
routing or fault decisions moves at least one of them.

The matrix crosses both routers, the no-policy run and every policy
preset (deadline, retry storms with and without a budget, shedding,
hedging with a circuit breaker), fault-free runs and runs with
per-host fault plans plus a mid-run link-down, and spans off and on,
on a single-device pool.  A few spanned cases on a heterogeneous
FPGA/ASIC pool pin the per-owner pool path.  The ``plans`` cases give
every host a fault plan but keep every link up: ``ClusterSim.run``
serves that policy-free hash-shard run without an event queue and
draws its faults in request order.  Their hashes were recorded on the
event queue, before that path existed.

Regenerate after an *intentional* model change with::

    PYTHONPATH=src python tests/cluster/test_sim_pinned.py
"""

from __future__ import annotations

import hashlib
import itertools
import json
from functools import lru_cache

import pytest

from repro.cluster import ClusterSim, ClusterTopology, LinkDown
from repro.cluster.resilience import PRESETS
from repro.config import hetero_pooled_testbed
from repro.faults import FaultPlan
from repro.sim.rng import forget
from repro.telemetry import SpanConfig, SpanRecorder

ROUTERS = ("hash-shard", "least-loaded")
POLICIES = ("none", "deadline", "guarded", "hedged", "unbudgeted")
FAULTS = ("free", "faulted")
SPANS = ("off", "on")

QPS = 220_000.0
REQUESTS = 1_200
SEED = 11


SPAN_CONFIG = SpanConfig(exemplars=REQUESTS, windows=4)
"""Every request is an exemplar, so the export carries all waterfalls."""


@lru_cache(maxsize=None)
def _topology(pool: str = "single") -> ClusterTopology:
    if pool == "hetero":
        return ClusterTopology(4, keys_per_host=8_000,
                               testbed=hetero_pooled_testbed(2))
    return ClusterTopology(3, keys_per_host=10_000)


def _plans(topo: ClusterTopology) -> dict:
    """Per-host device weather: stalls, timeouts and poisoned reads."""
    plan = FaultPlan(stall_rate=0.1, stall_ns=80_000.0, timeout_rate=0.01,
                     poison_rate=0.005, seed=3)
    return {"fault_plans": {host: plan for host in range(topo.num_hosts)}}


def _faulted(topo: ClusterTopology) -> dict:
    """Per-host device weather plus host 1's link dying midway."""
    return {**_plans(topo), "link_down": LinkDown(1)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_case(name: str) -> dict[str, str]:
    """Run one pinned case; returns its result and span hashes."""
    pool, router, policy, faults, spans = name.split("/")
    topo = _topology(pool)
    recorder = SpanRecorder(SPAN_CONFIG) if spans == "on" else None
    extra = {"free": {}, "plans": _plans(topo),
             "faulted": _faulted(topo)}[faults]
    sim = ClusterSim(topo, router=router, seed=SEED,
                     policy=None if policy == "none" else PRESETS[policy],
                     spans=recorder, **extra)
    result = sim.run(QPS, requests=REQUESTS)
    digests = {"result": _sha(repr(result))}
    if recorder is not None:
        digests["spans"] = _sha(json.dumps(
            recorder.export(), sort_keys=True, separators=(",", ":")))
    return digests


CASES = ["/".join(parts) for parts in
         itertools.product(("single",), ROUTERS, POLICIES, FAULTS, SPANS)]
CASES += [f"hetero/{router}/{policy}/faulted/on" for router in ROUTERS
          for policy in ("none", "hedged")]
CASES += [f"{pool}/hash-shard/none/plans/{spans}"
          for pool, spans in (("single", "off"), ("single", "on"),
                              ("hetero", "off"))]

PINNED: dict[str, dict[str, str]] = {
    "single/hash-shard/none/free/off": {
        "result":
            "7c0db5b2c818e10d9c53796974ce52d058c69693057f97c152281ec98d0df9e5",
    },
    "single/hash-shard/none/free/on": {
        "result":
            "7c0db5b2c818e10d9c53796974ce52d058c69693057f97c152281ec98d0df9e5",
        "spans":
            "a711d127e175ab38c445b0849168a151d96688e047bbd1ac530ebe556e0ebf11",
    },
    "single/hash-shard/none/faulted/off": {
        "result":
            "18bfab2295ba9c1a048cadd3afbf5ed5959451d7a65462f4a0468f85f4320436",
    },
    "single/hash-shard/none/faulted/on": {
        "result":
            "18bfab2295ba9c1a048cadd3afbf5ed5959451d7a65462f4a0468f85f4320436",
        "spans":
            "d34898f6d86a13ef86077e9c183251130048cd1df2f4555055dd582af0bc65f1",
    },
    "single/hash-shard/deadline/free/off": {
        "result":
            "e3b921717b769c11508d3f81c1a5aa37cbc95c313902cb3f9dfac355282eb6a2",
    },
    "single/hash-shard/deadline/free/on": {
        "result":
            "e3b921717b769c11508d3f81c1a5aa37cbc95c313902cb3f9dfac355282eb6a2",
        "spans":
            "353afb884647ae60c5f9e6e16cf69e494a44ad2d04dc2d9583723278659403dc",
    },
    "single/hash-shard/deadline/faulted/off": {
        "result":
            "7a7a24ad570cba76f29f99378a97995c68b745dccb026cb4ea10a475af0cd55b",
    },
    "single/hash-shard/deadline/faulted/on": {
        "result":
            "7a7a24ad570cba76f29f99378a97995c68b745dccb026cb4ea10a475af0cd55b",
        "spans":
            "6eac8c88c751bd9fc9a90d1f18ac9620c131c7caf397f4e981ba46a6a4371d8a",
    },
    "single/hash-shard/guarded/free/off": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
    },
    "single/hash-shard/guarded/free/on": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "spans":
            "efa7cdd8d5ff7def4e4563e0ccdd73b75813e0a6a50bcf0b6d981a8fd947c51c",
    },
    "single/hash-shard/guarded/faulted/off": {
        "result":
            "91ec6d0e3eefc76da32079140ad9fb7e97fe3c237c95fed8617fd11716c4f888",
    },
    "single/hash-shard/guarded/faulted/on": {
        "result":
            "91ec6d0e3eefc76da32079140ad9fb7e97fe3c237c95fed8617fd11716c4f888",
        "spans":
            "e998a499f73cbee946760c3b2ba42b5a9d5d8eb993798e3a7a9097a31e6b6c17",
    },
    "single/hash-shard/hedged/free/off": {
        "result":
            "5806791e8e7cbc281de1505ade83c58c735d377892d944dc1d542321c35a4e5c",
    },
    "single/hash-shard/hedged/free/on": {
        "result":
            "5806791e8e7cbc281de1505ade83c58c735d377892d944dc1d542321c35a4e5c",
        "spans":
            "68988d2366d5d7d5b50ffb7fcfc0f69bbd9aa33ed4748565d34811b57faf67e1",
    },
    "single/hash-shard/hedged/faulted/off": {
        "result":
            "6edac4d3d965daaaf2d93858cc69c642ae9653417fa26121e58099e3af2e9b0a",
    },
    "single/hash-shard/hedged/faulted/on": {
        "result":
            "6edac4d3d965daaaf2d93858cc69c642ae9653417fa26121e58099e3af2e9b0a",
        "spans":
            "d7543cfa99a66d44ff11c764bc4d517cca28d45673a43e42b5dab5673885f98d",
    },
    "single/hash-shard/unbudgeted/free/off": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
    },
    "single/hash-shard/unbudgeted/free/on": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "spans":
            "efa7cdd8d5ff7def4e4563e0ccdd73b75813e0a6a50bcf0b6d981a8fd947c51c",
    },
    "single/hash-shard/unbudgeted/faulted/off": {
        "result":
            "0ff69135f111b877f281f3e05ba2d284466c0d93d8f0dfc4fd146cc25919fccd",
    },
    "single/hash-shard/unbudgeted/faulted/on": {
        "result":
            "0ff69135f111b877f281f3e05ba2d284466c0d93d8f0dfc4fd146cc25919fccd",
        "spans":
            "bc01eab37146729e7c9d6b75af0148fc85df2019bdb3ab2262e8a6300abec711",
    },
    "single/least-loaded/none/free/off": {
        "result":
            "ab48b29217e1437c2f0ccf1f05f0c3f9db08220e3210cdd52e64615a1692b45a",
    },
    "single/least-loaded/none/free/on": {
        "result":
            "ab48b29217e1437c2f0ccf1f05f0c3f9db08220e3210cdd52e64615a1692b45a",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
    },
    "single/least-loaded/none/faulted/off": {
        "result":
            "bb3c8cd32012cbce3f29611cb49135f20006fb7852730ce03b5f463719d92fb5",
    },
    "single/least-loaded/none/faulted/on": {
        "result":
            "bb3c8cd32012cbce3f29611cb49135f20006fb7852730ce03b5f463719d92fb5",
        "spans":
            "d07cc17f98f488fe13044c1186f1f3d01ee79c3c6fb7280d3561bed05abad49a",
    },
    "single/least-loaded/deadline/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
    },
    "single/least-loaded/deadline/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
    },
    "single/least-loaded/deadline/faulted/off": {
        "result":
            "f185d2e5e7966c0a9be0f07b1fd39e874f2a0b8a62c1d82e3090836d9d5bbeb1",
    },
    "single/least-loaded/deadline/faulted/on": {
        "result":
            "f185d2e5e7966c0a9be0f07b1fd39e874f2a0b8a62c1d82e3090836d9d5bbeb1",
        "spans":
            "90f6a851214ace02eb4f521355b4ec6cc0c98ecf191208749bacacd25984bd64",
    },
    "single/least-loaded/guarded/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
    },
    "single/least-loaded/guarded/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
    },
    "single/least-loaded/guarded/faulted/off": {
        "result":
            "de1d5518b4ff4ece55d2de2ee733709664eca53596646d0a31c459e675691eb6",
    },
    "single/least-loaded/guarded/faulted/on": {
        "result":
            "de1d5518b4ff4ece55d2de2ee733709664eca53596646d0a31c459e675691eb6",
        "spans":
            "fa935ae2289e6fc561819d44c024d93702cdf44264a56df4d2d61821367db614",
    },
    "single/least-loaded/hedged/free/off": {
        "result":
            "363daa055a9f83beb893eef8bcf481d8706ff47504d2508808efb4573ed9558e",
    },
    "single/least-loaded/hedged/free/on": {
        "result":
            "363daa055a9f83beb893eef8bcf481d8706ff47504d2508808efb4573ed9558e",
        "spans":
            "3aeadf0a4a02c23bb633aefbe2e6b861513f7e512569c9e46f59ce5040deeae9",
    },
    "single/least-loaded/hedged/faulted/off": {
        "result":
            "53b87489b157650b41de51a55d5e8c0b178a0c70a83e6c363dfd549c6f52e1a0",
    },
    "single/least-loaded/hedged/faulted/on": {
        "result":
            "53b87489b157650b41de51a55d5e8c0b178a0c70a83e6c363dfd549c6f52e1a0",
        "spans":
            "8b8b303acca5c44a06594cc59287bca1cc5055ca32fd4a96928209dbc9a1ed02",
    },
    "single/least-loaded/unbudgeted/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
    },
    "single/least-loaded/unbudgeted/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
    },
    "single/least-loaded/unbudgeted/faulted/off": {
        "result":
            "d25bad9d74ba0feb14ffa267d0d2d0d1486f153a661d7994e06a30e8d703e5f3",
    },
    "single/least-loaded/unbudgeted/faulted/on": {
        "result":
            "d25bad9d74ba0feb14ffa267d0d2d0d1486f153a661d7994e06a30e8d703e5f3",
        "spans":
            "fec0bc4199069db8b468b755eee73513c61e0cbb6b5c6d1fd647b12ea9efde69",
    },
    "hetero/hash-shard/none/faulted/on": {
        "result":
            "97957873ae46b4880d119552387ef4e43f0d44101f07c622f59e0abeb6f06c47",
        "spans":
            "edc630cadd112188521caa8c43a6f627d8f59035fd043d2d636140377ad25fc1",
    },
    "hetero/hash-shard/hedged/faulted/on": {
        "result":
            "eb840d4b7764dd07741ba93a58c90f18b4454c58a6c9ad84328822c3bc339530",
        "spans":
            "ce6364aa19f7d9e6b04253f4bc117d0df5f1e6986d2f7fa311de9b218ef87b7c",
    },
    "hetero/least-loaded/none/faulted/on": {
        "result":
            "e3b10d81d4665740915f871db69dde9122adffddb11f06bc4699d626d210c1ac",
        "spans":
            "c2491a3561f0ceb72a35196a52b2185ff0b24a37bd4383bfa1e4b63f17e31892",
    },
    "hetero/least-loaded/hedged/faulted/on": {
        "result":
            "a94a6b862fdbacef20facfb38cff10927a4f9e032a9cf20160041b0cc27f4272",
        "spans":
            "5002246f0ab8bb7faa43be5bfba516e428f5f27b8d46195b348adfa0e6821b52",
    },
    "single/hash-shard/none/plans/off": {
        "result":
            "bcf1ee903ec2ab9fb4a1b0c78c099a88a8f515b685ae5efa87804063b375c8a8",
    },
    "single/hash-shard/none/plans/on": {
        "result":
            "bcf1ee903ec2ab9fb4a1b0c78c099a88a8f515b685ae5efa87804063b375c8a8",
        "spans":
            "0247260617d95d11640dd23d20ca714461563abcc9d4375de568f03c5b5d259f",
    },
    "hetero/hash-shard/none/plans/off": {
        "result":
            "96d1c8b0abf5fad5488c6cf3e7aa98d3f71aca1202855d99fdd81788b3667460",
    },
}


@pytest.mark.parametrize("name", CASES)
def test_cluster_outputs_match_pins(name):
    assert _run_case(name) == PINNED[name]


def test_every_pin_holds_twice_in_one_process():
    """The draw memo (``repro.sim.rng.recall``) keeps each trace and
    placement a process draws: from an empty memo, every case runs
    twice, so the second run of each reads back what the first drew."""
    forget()
    for _ in range(2):
        for name in CASES:
            assert _run_case(name) == PINNED[name], name


def test_faulted_cases_exercise_every_policy_branch():
    """The pins are only meaningful if each policy's machinery fires."""
    for router in ROUTERS:
        stats = {}
        for policy in POLICIES[1:]:
            result = ClusterSim(_topology(), router=router, seed=SEED,
                                policy=PRESETS[policy],
                                **_faulted(_topology())).run(
                                    QPS, requests=REQUESTS)
            assert result.rerouted > 0
            assert result.injected == result.recovered > 0
            stats[policy] = result.resilience
        assert stats["deadline"].deadline_exceeded > 0
        assert stats["guarded"].rejected > 0
        assert stats["guarded"].retries_suppressed > 0
        assert stats["unbudgeted"].retries_issued > 0
        assert stats["hedged"].hedge_wins > 0
        assert stats["hedged"].breaker_opens > 0


if __name__ == "__main__":
    print(json.dumps({name: _run_case(name) for name in CASES},
                     indent=4))
