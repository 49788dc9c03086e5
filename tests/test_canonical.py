"""Canonical JSON: pinned digests of every content address, and the
artifact writer's byte format.

Every hex literal below is a content address some saved artifact or
cache entry already carries; a change to the canonical form would
silently orphan result caches, journals and ledger history, so the
values are pinned rather than recomputed.
"""

import json

import pytest

from repro.canonical import canonical_digest, write_json
from repro.obs import config_hash
from repro.parallel.cache import payload_checksum, result_key
from repro.resilience.checkpoint import _payload_digest, suite_hash
from repro.scenarios import load_pack
from repro.telemetry.spans import spans_digest

VERSION = "1.0+src.0123456789ab"
PAYLOAD = {"b": [1, 2.5, "x"], "a": None,
           "nested": {"z": True, "y": "µs"}}
PAYLOAD_SHA256 = \
    "8588a380d04d453c600901ab09f00ba2df39c047e6e0343b3db7b637b0c4579b"

SCENARIO_HASHES = {
    "asic-vs-fpga": "79a47cfb85560293",
    "bursty-traffic": "3d5aa9a5defd2fa4",
    "degraded-link": "acad798d98a8db35",
    "diurnal-cycle": "6671b29caced9c66",
    "fault-severity": "6e98d20b69366ce9",
    "fleet-scaling": "981221c1ad6420e8",
    "hedged-degraded-link": "b70d1ff01745edf0",
    "hetero-pool": "b67b463cc065868c",
    "least-loaded-routing": "789e1832746f876f",
    "pool-share-sweep": "0bbce339abdea269",
    "steady-baseline": "84cf089563e868e9",
    "write-heavy": "30562735e062e204",
}


class TestPinnedDigests:
    def test_canonical_digest(self):
        assert canonical_digest(PAYLOAD) == PAYLOAD_SHA256

    def test_result_key(self):
        assert result_key("fig3", {"fast": True}, version=VERSION) == (
            "fbebb1fe2d72ef95199220a8e9a3132d"
            "1257421aa140a2a9f08f80710e740d2d")

    def test_payload_checksum(self):
        assert payload_checksum(PAYLOAD) == PAYLOAD_SHA256

    def test_config_hash(self):
        assert config_hash({"fast": True, "jobs": 2, "cache": False}) \
            == "8afe7422360e"

    def test_suite_hash(self):
        assert suite_hash(["fig2", "fig3"], {"fast": True},
                          version=VERSION) == (
            "cf1a4519352b3fc316a53ba74d94fd33"
            "9bf6c16f32413fb63e3b4c23b4a163a3")

    def test_journal_line_digest(self):
        assert _payload_digest(PAYLOAD) == "8588a380d04d453c"

    def test_spans_digest(self):
        payload = {"points": {"p": {"exemplars": [{"total_ns": 1.5},
                                                  {"total_ns": 2}]}}}
        assert spans_digest(payload) == {"exemplars": 2,
                                         "digest": "96a18ebbc833"}

    def test_every_pack_scenario_content_hash(self):
        hashes = {scenario.name: scenario.content_hash()
                  for scenario in load_pack()}
        assert hashes == SCENARIO_HASHES


class TestWriteJson:
    def test_indented_sorted_with_trailing_newline(self, tmp_path):
        target = write_json(tmp_path / "deep" / "out.json",
                            {"b": 1, "a": [1, 2]})
        assert target == tmp_path / "deep" / "out.json"
        assert target.read_text() == json.dumps(
            {"a": [1, 2], "b": 1}, indent=2) + "\n"

    def test_unserializable_leaves_no_partial_file(self, tmp_path):
        with pytest.raises(TypeError):
            write_json(tmp_path / "bad.json", {"a": object()})
        assert not (tmp_path / "bad.json").exists()
