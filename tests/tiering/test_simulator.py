"""End-to-end tiering: the paper's baseline claim, made executable."""

import pytest

from repro import build_system, combined_testbed
from repro.errors import WorkloadError
from repro.tiering import (
    MigrationEngine,
    NoMigration,
    PageMigrator,
    TieringSimulator,
    TppLikePolicy,
)


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture(scope="module")
def simulator(system):
    return TieringSimulator(system, num_pages=4096,
                            dram_capacity_pages=1024,
                            accesses_per_epoch=20_000,
                            shift_every=8)


@pytest.fixture(scope="module")
def migrator(system):
    return PageMigrator(system, engine=MigrationEngine.DSA_ASYNC)


@pytest.fixture(scope="module")
def static_stats(simulator, migrator):
    return simulator.run(NoMigration(), migrator, epochs=20)


@pytest.fixture(scope="module")
def tpp_stats(simulator, migrator):
    policy = TppLikePolicy(max_migrations_per_epoch=512)
    return simulator.run(policy, migrator, epochs=20)


class TestBaselineClaim:
    def test_tiering_beats_weighted_interleave(self, simulator,
                                               static_stats, tpp_stats):
        """§5: a tiering policy 'should, at the very least, perform
        equally well' vs weighted round-robin — TPP-like clearly does."""
        static = simulator.steady_state_ns(static_stats)
        tpp = simulator.steady_state_ns(tpp_stats)
        assert tpp < 0.8 * static

    def test_static_baseline_never_migrates(self, static_stats):
        assert all(s.migrated_pages == 0 for s in static_stats)
        assert all(s.migration_ns == 0.0 for s in static_stats)

    def test_tpp_converges_after_warmup(self, tpp_stats):
        first = tpp_stats[0].effective_ns
        settled = tpp_stats[5].effective_ns
        assert settled < 0.7 * first

    def test_hot_set_shift_causes_latency_spike(self, simulator,
                                                tpp_stats):
        """Epoch 8 moves the hot set: latency spikes, then re-converges."""
        before = tpp_stats[7].effective_ns
        spike = tpp_stats[8].effective_ns
        recovered = tpp_stats[13].effective_ns
        assert spike > 1.2 * before
        assert recovered < 0.8 * spike

    def test_effective_latency_bounded_by_tiers(self, system, tpp_stats):
        dram = (system.edge_ns()
                + system.backend_for_node(0).idle_read_ns())
        cxl = (system.edge_ns()
               + system.backend_for_node(
                   system.cxl_node_id).idle_read_ns())
        for stat in tpp_stats:
            assert dram <= stat.avg_access_ns <= cxl


class TestMigrationEngines:
    def test_dsa_migrator_has_lower_overhead(self, system, simulator):
        policy = TppLikePolicy(max_migrations_per_epoch=512)
        dsa = simulator.run(policy, PageMigrator(
            system, engine=MigrationEngine.DSA_ASYNC), epochs=10)
        cpu = simulator.run(policy, PageMigrator(
            system, engine=MigrationEngine.CPU_MEMCPY), epochs=10)
        dsa_migration = sum(s.migration_ns for s in dsa)
        cpu_migration = sum(s.migration_ns for s in cpu)
        assert dsa_migration < cpu_migration


class TestSimulatorValidation:
    def test_dataset_must_exceed_dram(self, system):
        with pytest.raises(WorkloadError):
            TieringSimulator(system, num_pages=100,
                             dram_capacity_pages=100)

    def test_initial_placement_respects_capacity(self, simulator):
        on_dram = simulator.initial_placement()
        assert int(on_dram.sum()) <= simulator.dram_capacity_pages

    def test_zero_epochs_rejected(self, simulator, migrator):
        with pytest.raises(WorkloadError):
            simulator.run(NoMigration(), migrator, epochs=0)

    def test_latency_series_export(self, simulator, tpp_stats):
        series = TieringSimulator.latency_series(tpp_stats, "tpp")
        assert len(series) == len(tpp_stats)
        assert series.name == "tpp"

    def test_steady_state_needs_epochs(self, simulator, tpp_stats):
        with pytest.raises(WorkloadError):
            simulator.steady_state_ns(tpp_stats[:3], skip=4)

    def test_determinism(self, system, simulator, migrator):
        policy = TppLikePolicy(max_migrations_per_epoch=128)
        a = simulator.run(policy, migrator, epochs=6)
        b = simulator.run(policy, migrator, epochs=6)
        assert [s.effective_ns for s in a] == [s.effective_ns for s in b]
