"""The extension studies built on the paper's outlook.

* tiering vs the weighted-interleave baseline (§5's baseline claim);
* near-memory inline acceleration (§6's final guideline);
* multi-device pooling (§5.2's bandwidth anticipation).
"""

from repro import build_system, combined_testbed
from repro.apps.dlrm import DlrmInferenceStudy
from repro.apps.dlrm.nearmem import NearMemoryReduction
from repro.config import pooled_cxl_testbed
from repro.tiering import (
    MigrationEngine,
    NoMigration,
    PageMigrator,
    TieringSimulator,
    TppLikePolicy,
)


def test_ext_tiering_vs_baseline():
    system = build_system(combined_testbed())
    simulator = TieringSimulator(system, num_pages=4096,
                                 dram_capacity_pages=1024,
                                 accesses_per_epoch=20_000)
    migrator = PageMigrator(system, engine=MigrationEngine.DSA_ASYNC)
    static = simulator.run(NoMigration(), migrator, epochs=16)
    tpp = simulator.run(TppLikePolicy(max_migrations_per_epoch=512),
                        migrator, epochs=16)
    # tiering beats the §5 baseline
    assert simulator.steady_state_ns(tpp) \
        < simulator.steady_state_ns(static)


def test_ext_nearmem_acceleration():
    kernel = DlrmInferenceStudy(combined_testbed()).kernel("cxl")
    assert NearMemoryReduction(kernel).throughput(16) \
        > kernel.throughput(16)


def test_ext_device_pooling():
    bounds = {devices: DlrmInferenceStudy(pooled_cxl_testbed(devices))
              .kernel("cxl-pool").throughput(32)
              for devices in (1, 2, 4)}
    assert bounds[2] > 1.8 * bounds[1]
