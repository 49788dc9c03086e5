"""Suite-wide fixtures.

The result cache defaults to ``results/.cache`` under the working
directory, the run ledger to ``results/runs.jsonl``, and the
checkpoint journal to ``results/.checkpoint``; tests must never read
from or write into the checkout's real copies (a stale entry could
mask a regression, and a test run should not dirty the repo).  Point
all three at throwaway locations for the whole session unless a test
overrides them explicitly.
"""

import os
import tempfile
from multiprocessing.process import BaseProcess

import pytest


def pytest_configure(config):
    os.environ.setdefault(
        "REPRO_CACHE_DIR",
        tempfile.mkdtemp(prefix="repro-test-cache-"))
    os.environ.setdefault(
        "REPRO_LEDGER_PATH",
        os.path.join(tempfile.mkdtemp(prefix="repro-test-ledger-"),
                     "runs.jsonl"))
    os.environ.setdefault(
        "REPRO_CHECKPOINT_DIR",
        tempfile.mkdtemp(prefix="repro-test-checkpoint-"))


@pytest.fixture
def starts(monkeypatch):
    """The processes started from this process while the test runs."""
    started = []
    original = BaseProcess.start

    def start(self):
        started.append(self)
        original(self)

    monkeypatch.setattr(BaseProcess, "start", start)
    return started
