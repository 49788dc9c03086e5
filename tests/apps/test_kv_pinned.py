"""KvServer and KvStore outputs pinned to digests of recorded runs.

The Lindley path and the DES reference read one pre-drawn trace, so
``test_kv_fastpath.py``'s fast-path-equals-DES check cannot, on its
own, notice a change in the order the trace is drawn in.  These pins
can: they were recorded from the per-request sampler the batched one
replaced, and every value below must still come out bit for bit.

* ``RUN_SHA256`` — sha256 (first 16 hex digits) of ``repr`` of every
  ``RunResult`` field plus the store's final ``num_keys`` (workload D
  inserts), for workloads A, B, D, F and a Zipfian B at four CXL
  fractions and 1, 2 and 4 workers (QPS 50 000 per worker, 1 500
  requests, 10 000 keys).  ``workers == 1`` is checked on
  :class:`KvServer` and on the DES reference of
  ``test_kv_fastpath.py``; more workers on the DES reference alone.
* ``MEAN_SERVICE_NS`` — ``KvStore.mean_service_ns()`` for every Fig-7
  variant at every Fig-7 fraction (200 000 keys, the study's seed).
* ``SPANS_SHA256`` — the canonical JSON of one spanned four-worker DES
  reference run's span export (workload D, 10 % CXL).
"""

import hashlib
import json
from dataclasses import astuple

import pytest

from repro import build_system, combined_testbed
from repro.apps.kvstore import KvServer, RedisYcsbStudy
from repro.sim.rng import forget
from repro.telemetry import SpanRecorder
from repro.workloads import WORKLOADS
from tests.apps.test_kv_fastpath import run_des

REQUESTS = 1_500
QPS_PER_WORKER = 50_000.0
FRACTIONS = (0.0, 0.1, 0.5, 1.0)
FIG7_FRACTIONS = (0.0, 1 / 31, 0.1, 0.5, 1.0)

VARIANTS = {
    "A": WORKLOADS["A"],
    "B": WORKLOADS["B"],
    "D": WORKLOADS["D"],
    "F": WORKLOADS["F"],
    "B-zipf": WORKLOADS["B"].with_distribution("zipfian"),
}

RUN_SHA256 = {
    ('A', 0.0, 1): '5c5531443df51717',
    ('A', 0.0, 2): 'dfd3eb9caa827560',
    ('A', 0.0, 4): 'b5255bbbf0fd0a99',
    ('A', 0.1, 1): 'c915a71c2269f17a',
    ('A', 0.1, 2): '6ea7d51ea9258789',
    ('A', 0.1, 4): '88f96bc6b45b5962',
    ('A', 0.5, 1): '16144db05db96058',
    ('A', 0.5, 2): 'aab98034e87eec96',
    ('A', 0.5, 4): '5abf3d19cc7a15ab',
    ('A', 1.0, 1): '2ad5072c8ac32b7a',
    ('A', 1.0, 2): 'd825e3542e59ea72',
    ('A', 1.0, 4): '492aa6a026c7b74f',
    ('B', 0.0, 1): '148ea3de11d25779',
    ('B', 0.0, 2): '01b921e94b707b25',
    ('B', 0.0, 4): '58a6f8efde4eaeda',
    ('B', 0.1, 1): 'd78df6b98eabd35b',
    ('B', 0.1, 2): '5d27f0574d0b22f0',
    ('B', 0.1, 4): '7c976e9e5e88f8ac',
    ('B', 0.5, 1): 'd313ecbb0de21268',
    ('B', 0.5, 2): '1a247e73c612695a',
    ('B', 0.5, 4): 'e70fc302881d5fd2',
    ('B', 1.0, 1): '0e4b194c25976fcd',
    ('B', 1.0, 2): 'ab0b9f2ef03f2797',
    ('B', 1.0, 4): '4cf1dfce67209155',
    ('D', 0.0, 1): 'fa79f329a6d671bc',
    ('D', 0.0, 2): '4c1ee48782eb9fb8',
    ('D', 0.0, 4): 'ae158f64b42f744c',
    ('D', 0.1, 1): 'e535a0fd14857e60',
    ('D', 0.1, 2): '1fe2bb4e5ae8c468',
    ('D', 0.1, 4): '00bda7ed50659963',
    ('D', 0.5, 1): '6c13e2a6697724b0',
    ('D', 0.5, 2): '876208fa1a9a2158',
    ('D', 0.5, 4): '71f5c44f02ad17b2',
    ('D', 1.0, 1): '31c79c2c1d200b93',
    ('D', 1.0, 2): '679614e736f0744f',
    ('D', 1.0, 4): '37b3b442cd3d899b',
    ('F', 0.0, 1): '5c5531443df51717',
    ('F', 0.0, 2): 'dfd3eb9caa827560',
    ('F', 0.0, 4): 'b5255bbbf0fd0a99',
    ('F', 0.1, 1): 'c915a71c2269f17a',
    ('F', 0.1, 2): '6ea7d51ea9258789',
    ('F', 0.1, 4): '88f96bc6b45b5962',
    ('F', 0.5, 1): '16144db05db96058',
    ('F', 0.5, 2): 'aab98034e87eec96',
    ('F', 0.5, 4): '5abf3d19cc7a15ab',
    ('F', 1.0, 1): '2ad5072c8ac32b7a',
    ('F', 1.0, 2): 'd825e3542e59ea72',
    ('F', 1.0, 4): '492aa6a026c7b74f',
    ('B-zipf', 0.0, 1): 'f5e351ac5348c773',
    ('B-zipf', 0.0, 2): 'efcde4d1a049c60c',
    ('B-zipf', 0.0, 4): 'b7adbd141eebe147',
    ('B-zipf', 0.1, 1): '8c0f093a25d4384e',
    ('B-zipf', 0.1, 2): 'b1b933688a95e9da',
    ('B-zipf', 0.1, 4): '3da057adbe33b620',
    ('B-zipf', 0.5, 1): '5b0226ef14983a8d',
    ('B-zipf', 0.5, 2): '7317d1191c369568',
    ('B-zipf', 0.5, 4): 'a18466d02e8358a3',
    ('B-zipf', 1.0, 1): '9700ec83e7c4a642',
    ('B-zipf', 1.0, 2): '978daf750d77d451',
    ('B-zipf', 1.0, 4): 'a3ccbf82be2dfba5',
}

MEAN_SERVICE_NS = {
    'A': (
        12486.783293990105,
        12715.229881894682,
        13056.89329210877,
        15204.171584036967,
        17867.175502433907,
    ),
    'B': (
        12349.06275940638,
        12563.72887163881,
        12879.102028603016,
        14877.857863317819,
        17362.325565514242,
    ),
    'C': (
        12335.356699119307,
        12549.957741478938,
        12862.843692944405,
        14845.45110843313,
        17312.08248671514,
    ),
    'D-lat': (
        10807.321823280128,
        10829.438360852773,
        10887.998596135923,
        11235.65763486664,
        11764.850619423256,
    ),
    'D-zipf': (
        10964.67357509472,
        10989.028370036356,
        11060.497646976319,
        11494.427961743111,
        12341.663817381826,
    ),
    'D-uni': (
        12349.06275940638,
        12563.72887163881,
        12879.102028603016,
        14877.857863317819,
        17362.325565514242,
    ),
    'F': (
        12486.783293990105,
        12715.229881894682,
        13056.89329210877,
        15204.171584036967,
        17867.175502433907,
    ),
}

SPANS_SHA256 = (
    "ae49c77f83851eade8fbee7b2aec0bc8"
    "1265c578cfea2166629ef4388aa86c40")



@pytest.fixture(scope="module")
def study():
    return RedisYcsbStudy(build_system(combined_testbed()),
                          num_keys=10_000)


def _digest(study, name, fraction, workers, *, fastpath):
    store = study.build_store(VARIANTS[name], fraction)
    try:
        qps = QPS_PER_WORKER * workers
        if fastpath:
            result = KvServer(store, seed=study.seed).run(
                qps, requests=REQUESTS)
        else:
            result = run_des(store, qps, REQUESTS, seed=study.seed,
                             workers=workers)
        blob = repr((astuple(result), store.num_keys))
    finally:
        store.free()
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


class TestRunResultsPinned:
    @pytest.mark.parametrize("name, fraction, workers", sorted(RUN_SHA256))
    def test_des_matches_the_pin(self, study, name, fraction, workers):
        assert _digest(study, name, fraction, workers, fastpath=False) \
            == RUN_SHA256[name, fraction, workers]

    @pytest.mark.parametrize("name, fraction", [
        key[:2] for key in sorted(RUN_SHA256) if key[2] == 1])
    def test_fast_path_matches_the_pin(self, study, name, fraction):
        assert _digest(study, name, fraction, 1, fastpath=True) \
            == RUN_SHA256[name, fraction, 1]


class TestMeanServicePinned:
    @pytest.fixture(scope="class")
    def fig7_study(self):
        return RedisYcsbStudy(build_system(combined_testbed()),
                              num_keys=200_000)

    @pytest.mark.parametrize("name", sorted(MEAN_SERVICE_NS))
    def test_every_fig7_fraction_matches(self, fig7_study, name):
        assert _mean_services(fig7_study, name) == MEAN_SERVICE_NS[name]


def _mean_services(fig7_study, name):
    workload = dict(fig7_study._fig7_variants(None))[name]
    values = []
    for fraction in FIG7_FRACTIONS:
        store = fig7_study.build_store(workload, fraction)
        try:
            values.append(store.mean_service_ns())
        finally:
            store.free()
    return tuple(values)


def _spans_digest(study):
    spans = SpanRecorder()
    store = study.build_store(WORKLOADS["D"], 0.1)
    try:
        run_des(store, 4 * QPS_PER_WORKER, REQUESTS, seed=study.seed,
                workers=4, spans=spans)
    finally:
        store.free()
    blob = json.dumps(spans.export(), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def test_spanned_des_export_matches_the_pin(study):
    assert _spans_digest(study) == SPANS_SHA256


def test_every_pin_holds_twice_in_one_process(study):
    """The draw memo (``repro.sim.rng.recall``) keeps each trace a
    process draws: from an empty memo, every case runs twice, so the
    second run of each reads back what the first drew."""
    forget()
    fig7_study = RedisYcsbStudy(build_system(combined_testbed()),
                                num_keys=200_000)
    for _ in range(2):
        for name, fraction, workers in sorted(RUN_SHA256):
            pin = RUN_SHA256[name, fraction, workers]
            assert _digest(study, name, fraction, workers,
                           fastpath=False) == pin
            if workers == 1:
                assert _digest(study, name, fraction, 1,
                               fastpath=True) == pin
        for name in sorted(MEAN_SERVICE_NS):
            assert _mean_services(fig7_study, name) == MEAN_SERVICE_NS[name]
        assert _spans_digest(study) == SPANS_SHA256
