"""Byte-identity pins for the ClusterSim request lifecycle.

Each case hashes ``repr`` of the :class:`ClusterResult` a run returns,
the snapshot of the ``cluster.*`` metrics it records and, with spans
on, the span export plus the Chrome-trace JSON.  The span recorder
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
FPGA/ASIC pool pin the per-owner pool path.

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
from repro.telemetry import (Registry, SpanConfig, SpanRecorder, Telemetry,
                             Tracer)

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


def _faulted(topo: ClusterTopology) -> dict:
    """Per-host device weather plus host 1's link dying midway."""
    plan = FaultPlan(stall_rate=0.1, stall_ns=80_000.0, timeout_rate=0.01,
                     poison_rate=0.005, seed=3)
    return {"fault_plans": {host: plan for host in range(topo.num_hosts)},
            "link_down": LinkDown(1)}


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _run_case(name: str) -> dict[str, str]:
    """Run one pinned case; returns its result, metric and span hashes."""
    pool, router, policy, faults, spans = name.split("/")
    topo = _topology(pool)
    recorder = SpanRecorder(SPAN_CONFIG) if spans == "on" else None
    telemetry = Telemetry(
        registry=Registry(),
        tracer=Tracer(process_name="pin") if recorder else None,
        spans=recorder)
    extra = _faulted(topo) if faults == "faulted" else {}
    sim = ClusterSim(topo, router=router, seed=SEED,
                     policy=None if policy == "none" else PRESETS[policy],
                     telemetry=telemetry, **extra)
    result = sim.run(QPS, requests=REQUESTS)
    snapshot = telemetry.registry.snapshot()
    digests = {
        "result": _sha(repr(result)),
        "metrics": _sha(json.dumps(
            {key: value for key, value in snapshot.items()
             if key.startswith("cluster.")},
            sort_keys=True, separators=(",", ":"))),
    }
    if recorder is not None:
        digests["spans"] = _sha(json.dumps(
            recorder.export(), sort_keys=True, separators=(",", ":")))
        digests["trace"] = _sha(telemetry.tracer.to_json())
    return digests


CASES = ["/".join(parts) for parts in
         itertools.product(("single",), ROUTERS, POLICIES, FAULTS, SPANS)]
CASES += [f"hetero/{router}/{policy}/faulted/on" for router in ROUTERS
          for policy in ("none", "hedged")]

PINNED: dict[str, dict[str, str]] = {
    "single/hash-shard/none/free/off": {
        "result":
            "7c0db5b2c818e10d9c53796974ce52d058c69693057f97c152281ec98d0df9e5",
        "metrics":
            "b095754bde687a86074f9948b75617bd8db96df40ec7af2bbfb07c71461f6635",
    },
    "single/hash-shard/none/free/on": {
        "result":
            "7c0db5b2c818e10d9c53796974ce52d058c69693057f97c152281ec98d0df9e5",
        "metrics":
            "b095754bde687a86074f9948b75617bd8db96df40ec7af2bbfb07c71461f6635",
        "spans":
            "a711d127e175ab38c445b0849168a151d96688e047bbd1ac530ebe556e0ebf11",
        "trace":
            "d4c0a43bfe8d37920e27542a9f219ef39fad2dab2f84ccace1acb96e663ee634",
    },
    "single/hash-shard/none/faulted/off": {
        "result":
            "18bfab2295ba9c1a048cadd3afbf5ed5959451d7a65462f4a0468f85f4320436",
        "metrics":
            "fc632157fd2d29fa2b68bd1df5f8893a3ca99f38f78ca6a01930494270fc25be",
    },
    "single/hash-shard/none/faulted/on": {
        "result":
            "18bfab2295ba9c1a048cadd3afbf5ed5959451d7a65462f4a0468f85f4320436",
        "metrics":
            "fc632157fd2d29fa2b68bd1df5f8893a3ca99f38f78ca6a01930494270fc25be",
        "spans":
            "d34898f6d86a13ef86077e9c183251130048cd1df2f4555055dd582af0bc65f1",
        "trace":
            "9017e52fd10ee7b652984a15023d58cb5fc3eae6267087167fcbbcca448ce3b9",
    },
    "single/hash-shard/deadline/free/off": {
        "result":
            "e3b921717b769c11508d3f81c1a5aa37cbc95c313902cb3f9dfac355282eb6a2",
        "metrics":
            "61bd6192899c1dcec117cb259fea84697669a931ce9c068910323c6bf8e9654a",
    },
    "single/hash-shard/deadline/free/on": {
        "result":
            "e3b921717b769c11508d3f81c1a5aa37cbc95c313902cb3f9dfac355282eb6a2",
        "metrics":
            "61bd6192899c1dcec117cb259fea84697669a931ce9c068910323c6bf8e9654a",
        "spans":
            "353afb884647ae60c5f9e6e16cf69e494a44ad2d04dc2d9583723278659403dc",
        "trace":
            "898e1bcc3198f94a5ce7eca082c996f2a2135ab8356d11a1de30ee25218943ec",
    },
    "single/hash-shard/deadline/faulted/off": {
        "result":
            "7a7a24ad570cba76f29f99378a97995c68b745dccb026cb4ea10a475af0cd55b",
        "metrics":
            "d1b3f7beeb922ffb0be73533762e0a988b3dc38dd31fa8a8cb16edd9d2e4af47",
    },
    "single/hash-shard/deadline/faulted/on": {
        "result":
            "7a7a24ad570cba76f29f99378a97995c68b745dccb026cb4ea10a475af0cd55b",
        "metrics":
            "d1b3f7beeb922ffb0be73533762e0a988b3dc38dd31fa8a8cb16edd9d2e4af47",
        "spans":
            "6eac8c88c751bd9fc9a90d1f18ac9620c131c7caf397f4e981ba46a6a4371d8a",
        "trace":
            "c92757b29c668ec35970b9c482b14d093f0f54a21de64adba90812723f988507",
    },
    "single/hash-shard/guarded/free/off": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "metrics":
            "1fdb56d721e9b1fc50474c1c61da38e03f05b650c41c05a94d5b1fc84f195cdc",
    },
    "single/hash-shard/guarded/free/on": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "metrics":
            "1fdb56d721e9b1fc50474c1c61da38e03f05b650c41c05a94d5b1fc84f195cdc",
        "spans":
            "efa7cdd8d5ff7def4e4563e0ccdd73b75813e0a6a50bcf0b6d981a8fd947c51c",
        "trace":
            "36779a4bb21c346c8045f3de335162dedb9034b8fae85c088b4ab2259ed92400",
    },
    "single/hash-shard/guarded/faulted/off": {
        "result":
            "91ec6d0e3eefc76da32079140ad9fb7e97fe3c237c95fed8617fd11716c4f888",
        "metrics":
            "6d8748d1a4f72934dc8d100b65984bc6b95d534c021cf4b9d2db68a4de5e5f52",
    },
    "single/hash-shard/guarded/faulted/on": {
        "result":
            "91ec6d0e3eefc76da32079140ad9fb7e97fe3c237c95fed8617fd11716c4f888",
        "metrics":
            "6d8748d1a4f72934dc8d100b65984bc6b95d534c021cf4b9d2db68a4de5e5f52",
        "spans":
            "e998a499f73cbee946760c3b2ba42b5a9d5d8eb993798e3a7a9097a31e6b6c17",
        "trace":
            "c71302ce93f87f667da58a737ff906c0510034b7d19d65cbff086acf5094f23d",
    },
    "single/hash-shard/hedged/free/off": {
        "result":
            "5806791e8e7cbc281de1505ade83c58c735d377892d944dc1d542321c35a4e5c",
        "metrics":
            "6ae758b13354f0b9d0892070f87b8c302a8e9f47d5f5f825ae4903d6bb30bc14",
    },
    "single/hash-shard/hedged/free/on": {
        "result":
            "5806791e8e7cbc281de1505ade83c58c735d377892d944dc1d542321c35a4e5c",
        "metrics":
            "6ae758b13354f0b9d0892070f87b8c302a8e9f47d5f5f825ae4903d6bb30bc14",
        "spans":
            "68988d2366d5d7d5b50ffb7fcfc0f69bbd9aa33ed4748565d34811b57faf67e1",
        "trace":
            "64d6307cf9164c5598f5901ebaf44d915aeae4a7d4055f443a743af4a250de29",
    },
    "single/hash-shard/hedged/faulted/off": {
        "result":
            "6edac4d3d965daaaf2d93858cc69c642ae9653417fa26121e58099e3af2e9b0a",
        "metrics":
            "bd432ecde21dbd02256cc7f4322f93fc9990feb3a0ddb087b041ed05495e3b38",
    },
    "single/hash-shard/hedged/faulted/on": {
        "result":
            "6edac4d3d965daaaf2d93858cc69c642ae9653417fa26121e58099e3af2e9b0a",
        "metrics":
            "bd432ecde21dbd02256cc7f4322f93fc9990feb3a0ddb087b041ed05495e3b38",
        "spans":
            "d7543cfa99a66d44ff11c764bc4d517cca28d45673a43e42b5dab5673885f98d",
        "trace":
            "2bc064585eeaa8b5c5b88ec312c87b470c90baacef29adc4b3eb1f053810f1bc",
    },
    "single/hash-shard/unbudgeted/free/off": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "metrics":
            "1fdb56d721e9b1fc50474c1c61da38e03f05b650c41c05a94d5b1fc84f195cdc",
    },
    "single/hash-shard/unbudgeted/free/on": {
        "result":
            "4a541d036d9304fa8eac172032753aa1022a39090979a8d91639cedd542046ee",
        "metrics":
            "1fdb56d721e9b1fc50474c1c61da38e03f05b650c41c05a94d5b1fc84f195cdc",
        "spans":
            "efa7cdd8d5ff7def4e4563e0ccdd73b75813e0a6a50bcf0b6d981a8fd947c51c",
        "trace":
            "36779a4bb21c346c8045f3de335162dedb9034b8fae85c088b4ab2259ed92400",
    },
    "single/hash-shard/unbudgeted/faulted/off": {
        "result":
            "0ff69135f111b877f281f3e05ba2d284466c0d93d8f0dfc4fd146cc25919fccd",
        "metrics":
            "9ed6b192c87dc6641574c30f87b7abdf37f3c34ce5d95fe923d8a1ec9e9148ee",
    },
    "single/hash-shard/unbudgeted/faulted/on": {
        "result":
            "0ff69135f111b877f281f3e05ba2d284466c0d93d8f0dfc4fd146cc25919fccd",
        "metrics":
            "9ed6b192c87dc6641574c30f87b7abdf37f3c34ce5d95fe923d8a1ec9e9148ee",
        "spans":
            "bc01eab37146729e7c9d6b75af0148fc85df2019bdb3ab2262e8a6300abec711",
        "trace":
            "7e4fd1689e14c38e5b4f00562ca624955a3f8cfb3465bf6daf71024c0cb3bb95",
    },
    "single/least-loaded/none/free/off": {
        "result":
            "ab48b29217e1437c2f0ccf1f05f0c3f9db08220e3210cdd52e64615a1692b45a",
        "metrics":
            "e86ee8109aacae5677de0085d0513b5784d0e719164652e6743a48018efaee36",
    },
    "single/least-loaded/none/free/on": {
        "result":
            "ab48b29217e1437c2f0ccf1f05f0c3f9db08220e3210cdd52e64615a1692b45a",
        "metrics":
            "e86ee8109aacae5677de0085d0513b5784d0e719164652e6743a48018efaee36",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
        "trace":
            "71882151f0ee3d89ec7401a29dfba1279901d0a1da82046b56bfb7e8f3d9b547",
    },
    "single/least-loaded/none/faulted/off": {
        "result":
            "bb3c8cd32012cbce3f29611cb49135f20006fb7852730ce03b5f463719d92fb5",
        "metrics":
            "d698bdf4ea053352c38ef005243b8a46c1242f68cd9cb144d3b11369471e3bff",
    },
    "single/least-loaded/none/faulted/on": {
        "result":
            "bb3c8cd32012cbce3f29611cb49135f20006fb7852730ce03b5f463719d92fb5",
        "metrics":
            "d698bdf4ea053352c38ef005243b8a46c1242f68cd9cb144d3b11369471e3bff",
        "spans":
            "d07cc17f98f488fe13044c1186f1f3d01ee79c3c6fb7280d3561bed05abad49a",
        "trace":
            "3c9dd9cc270a212c65f6030bf2a6ab50720610cf2060513a64072326238ac7e7",
    },
    "single/least-loaded/deadline/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
    },
    "single/least-loaded/deadline/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
        "trace":
            "71882151f0ee3d89ec7401a29dfba1279901d0a1da82046b56bfb7e8f3d9b547",
    },
    "single/least-loaded/deadline/faulted/off": {
        "result":
            "f185d2e5e7966c0a9be0f07b1fd39e874f2a0b8a62c1d82e3090836d9d5bbeb1",
        "metrics":
            "b3cecf99e0769db92ec799793ce258114921ca86b9aa537d26f59e01c331596a",
    },
    "single/least-loaded/deadline/faulted/on": {
        "result":
            "f185d2e5e7966c0a9be0f07b1fd39e874f2a0b8a62c1d82e3090836d9d5bbeb1",
        "metrics":
            "b3cecf99e0769db92ec799793ce258114921ca86b9aa537d26f59e01c331596a",
        "spans":
            "90f6a851214ace02eb4f521355b4ec6cc0c98ecf191208749bacacd25984bd64",
        "trace":
            "1561c0334aed1ac714569e5ced621cc1f7f096033d5aa6f39c964c74ad106018",
    },
    "single/least-loaded/guarded/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
    },
    "single/least-loaded/guarded/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
        "trace":
            "71882151f0ee3d89ec7401a29dfba1279901d0a1da82046b56bfb7e8f3d9b547",
    },
    "single/least-loaded/guarded/faulted/off": {
        "result":
            "de1d5518b4ff4ece55d2de2ee733709664eca53596646d0a31c459e675691eb6",
        "metrics":
            "296be08bb3cb739efa904e2684f2c2991c6c36491b6c26296be5e31247f22251",
    },
    "single/least-loaded/guarded/faulted/on": {
        "result":
            "de1d5518b4ff4ece55d2de2ee733709664eca53596646d0a31c459e675691eb6",
        "metrics":
            "296be08bb3cb739efa904e2684f2c2991c6c36491b6c26296be5e31247f22251",
        "spans":
            "fa935ae2289e6fc561819d44c024d93702cdf44264a56df4d2d61821367db614",
        "trace":
            "409ae966e6d9571785d54934253a1928ed2c75bc7166e5a1d678033e89d3b032",
    },
    "single/least-loaded/hedged/free/off": {
        "result":
            "363daa055a9f83beb893eef8bcf481d8706ff47504d2508808efb4573ed9558e",
        "metrics":
            "fa585a9ef18441e7687f7ea6f005574142443e99b8cb02ea1f69ecad34b94dcb",
    },
    "single/least-loaded/hedged/free/on": {
        "result":
            "363daa055a9f83beb893eef8bcf481d8706ff47504d2508808efb4573ed9558e",
        "metrics":
            "fa585a9ef18441e7687f7ea6f005574142443e99b8cb02ea1f69ecad34b94dcb",
        "spans":
            "3aeadf0a4a02c23bb633aefbe2e6b861513f7e512569c9e46f59ce5040deeae9",
        "trace":
            "7274de8e4f45d0175347ef7595c395c778a8908c2c90f07967426fa8cfdad9a5",
    },
    "single/least-loaded/hedged/faulted/off": {
        "result":
            "53b87489b157650b41de51a55d5e8c0b178a0c70a83e6c363dfd549c6f52e1a0",
        "metrics":
            "bd7a60b3dee679849cccc25f87b9f6f9dc5a354348e77204ed06bad9bbef350b",
    },
    "single/least-loaded/hedged/faulted/on": {
        "result":
            "53b87489b157650b41de51a55d5e8c0b178a0c70a83e6c363dfd549c6f52e1a0",
        "metrics":
            "bd7a60b3dee679849cccc25f87b9f6f9dc5a354348e77204ed06bad9bbef350b",
        "spans":
            "8b8b303acca5c44a06594cc59287bca1cc5055ca32fd4a96928209dbc9a1ed02",
        "trace":
            "86ea288ebbb4578c53020ff16335ec13bd227184f65b788132cc0c497979ad90",
    },
    "single/least-loaded/unbudgeted/free/off": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
    },
    "single/least-loaded/unbudgeted/free/on": {
        "result":
            "660360e040618ac2ff4ff0a66f9ce3d8a8d5c335d9f11bb4c705fb2132948bed",
        "metrics":
            "2b349bcf1c50e7ff67909d5b70b072bed740a0d8b7e71802376efe63cbce2542",
        "spans":
            "3726dfe57fa7948c58fcd9e923dbc0ac486ddda1c50e5df9ab2a88749f7127f5",
        "trace":
            "71882151f0ee3d89ec7401a29dfba1279901d0a1da82046b56bfb7e8f3d9b547",
    },
    "single/least-loaded/unbudgeted/faulted/off": {
        "result":
            "d25bad9d74ba0feb14ffa267d0d2d0d1486f153a661d7994e06a30e8d703e5f3",
        "metrics":
            "9966e3570e06d0f27400041fcdfe059e70585fa6a0eba74c8467ec3931f24577",
    },
    "single/least-loaded/unbudgeted/faulted/on": {
        "result":
            "d25bad9d74ba0feb14ffa267d0d2d0d1486f153a661d7994e06a30e8d703e5f3",
        "metrics":
            "9966e3570e06d0f27400041fcdfe059e70585fa6a0eba74c8467ec3931f24577",
        "spans":
            "fec0bc4199069db8b468b755eee73513c61e0cbb6b5c6d1fd647b12ea9efde69",
        "trace":
            "023b8d6e36ab313d348861f078bc061c559b1ca48d12e668865b6368399626f7",
    },
    "hetero/hash-shard/none/faulted/on": {
        "result":
            "97957873ae46b4880d119552387ef4e43f0d44101f07c622f59e0abeb6f06c47",
        "metrics":
            "27f755de9e41e77b1fcc26cd3db8db5ef7d4b405ad03bfc388d3f4fa2a259d2b",
        "spans":
            "edc630cadd112188521caa8c43a6f627d8f59035fd043d2d636140377ad25fc1",
        "trace":
            "567e4893970fd0fd5d013912b6ffbffd0a827cfc36f6b8de59a90f0658a65521",
    },
    "hetero/hash-shard/hedged/faulted/on": {
        "result":
            "eb840d4b7764dd07741ba93a58c90f18b4454c58a6c9ad84328822c3bc339530",
        "metrics":
            "3abc9291fe1791ee267276e71b1f35df65a446d31b9706ee291d0c21c19a5785",
        "spans":
            "ce6364aa19f7d9e6b04253f4bc117d0df5f1e6986d2f7fa311de9b218ef87b7c",
        "trace":
            "372697b276305800e8820176e185d7c07329cb9feed962978273c4c19a3ca032",
    },
    "hetero/least-loaded/none/faulted/on": {
        "result":
            "e3b10d81d4665740915f871db69dde9122adffddb11f06bc4699d626d210c1ac",
        "metrics":
            "963f1097a2842441f6b41e5adedfdeb689437401fa6cb03a5f279ae9143a15a7",
        "spans":
            "c2491a3561f0ceb72a35196a52b2185ff0b24a37bd4383bfa1e4b63f17e31892",
        "trace":
            "c8caff0e0c97c9d4c4f4af7f14465620f39edc671362f1cddc452640b1c215a6",
    },
    "hetero/least-loaded/hedged/faulted/on": {
        "result":
            "a94a6b862fdbacef20facfb38cff10927a4f9e032a9cf20160041b0cc27f4272",
        "metrics":
            "a7fd1e97e3fa85daa1589d82a74147c6f34ad72ceb02f26593bf443f5acbaf2b",
        "spans":
            "5002246f0ab8bb7faa43be5bfba516e428f5f27b8d46195b348adfa0e6821b52",
        "trace":
            "a5178b9fbab39703cadd87286db222206a9d9b003a16e4480a09053f8c591140",
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
