"""The Redis-YCSB study harness (Figs 6 and 7).

Placement is specified as the *fraction of Redis memory on CXL*:
0.0 binds everything to local DDR5, 1.0 binds to the CXL node, anything
between uses the weighted-interleave patch ratio closest to the target
(§5: 3.23 % = 30:1, 10 % = 9:1, 50 % = 1:1).  NUMA balancing is off —
pages never migrate (§5: "we disabled NUMA balancing to prevent page
migration to DRAM").
"""

from __future__ import annotations

from ...analysis.series import Series
from ...cpu.system import System
from ...errors import WorkloadError
from ...topology.interleave import Membind, PlacementPolicy, WeightedInterleave
from ...workloads.ycsb import WORKLOADS, YcsbWorkload
from .server import KvServer, RunResult
from .store import KvStore

SATURATION_HEADROOM = 0.97
"""A server sustains ~97% of its theoretical 1/E[service] capacity."""


class RedisYcsbStudy:
    """Builds stores at given CXL fractions and measures p99 / max QPS."""

    def __init__(self, system: System, *, num_keys: int = 200_000,
                 seed: int = 1) -> None:
        if not system.has_cxl:
            raise WorkloadError("the Redis study needs a CXL node")
        self.system = system
        self.num_keys = num_keys
        self.seed = seed

    # -- placement -----------------------------------------------------------

    def policy_for_fraction(self, cxl_fraction: float) -> PlacementPolicy:
        if not 0.0 <= cxl_fraction <= 1.0:
            raise WorkloadError(
                f"CXL fraction out of range: {cxl_fraction}")
        local = self.system.LOCAL_NODE
        cxl = self.system.cxl_node_id
        if cxl_fraction == 0.0:
            return Membind(local)
        if cxl_fraction == 1.0:
            return Membind(cxl)
        return WeightedInterleave.from_cxl_fraction(local, cxl,
                                                    cxl_fraction)

    def build_store(self, workload: YcsbWorkload,
                    cxl_fraction: float) -> KvStore:
        import numpy as np
        policy = self.policy_for_fraction(cxl_fraction)
        return KvStore(self.system, policy, workload=workload,
                       num_keys=self.num_keys,
                       rng=np.random.default_rng(self.seed))

    # -- Fig 6: p99 vs QPS ---------------------------------------------------

    def p99_point(self, workload: YcsbWorkload, cxl_fraction: float,
                  qps: float, *, requests: int = 15_000) -> RunResult:
        store = self.build_store(workload, cxl_fraction)
        try:
            return KvServer(store, seed=self.seed).run(qps,
                                                       requests=requests)
        finally:
            store.free()

    def point_spec(self, workload: YcsbWorkload, cxl_fraction: float,
                   qps: float, *, requests: int = 15_000) -> tuple:
        """The picklable :func:`~repro.parallel.sweeps.run_kv_p99_point`
        spec of :meth:`p99_point`."""
        return (self.system, self.num_keys, self.seed, workload,
                cxl_fraction, qps, requests)

    def p99_curve(self, workload: YcsbWorkload, cxl_fraction: float,
                  qps_points: list[float], *,
                  requests: int = 15_000) -> Series:
        """One Fig-6 curve: p99 sojourn (µs) versus offered QPS.

        Each point builds its own store from the same seed, so points
        are independent; Fig 6 runs each as its own unit
        (:func:`~repro.parallel.sweeps.run_kv_p99_point`) and builds the
        same series with :func:`p99_series`.
        """
        return p99_series(cxl_fraction, qps_points,
                          [self.p99_point(workload, cxl_fraction, qps,
                                          requests=requests)
                           for qps in qps_points])

    # -- Fig 7: max sustainable QPS -------------------------------------------

    def max_qps(self, workload: YcsbWorkload,
                cxl_fraction: float) -> float:
        """Saturation throughput: ~97% of 1/E[service].

        The DES server validates this analytic capacity (see the tests);
        using the closed form keeps the 6-workloads x 5-ratios sweep of
        Fig 7 fast.
        """
        store = self.build_store(workload, cxl_fraction)
        try:
            mean_service = store.mean_service_ns()
        finally:
            store.free()
        return SATURATION_HEADROOM / (mean_service / 1e9)

    def max_qps_table(self, *, cxl_fractions: list[float],
                      workload_names: list[str] | None = None
                      ) -> dict[str, Series]:
        """The full Fig-7 data: one series per workload variant."""
        variants = self._fig7_variants(workload_names)
        table: dict[str, Series] = {}
        for name, workload in variants:
            series = Series(name, x_label="CXL fraction",
                            y_label="max QPS")
            for fraction in cxl_fractions:
                series.append(fraction, self.max_qps(workload, fraction))
            table[name] = series
        return table

    @staticmethod
    def _fig7_variants(workload_names: list[str] | None
                       ) -> list[tuple[str, YcsbWorkload]]:
        names = workload_names or ["A", "B", "C", "D", "F"]
        variants: list[tuple[str, YcsbWorkload]] = []
        for name in names:
            if name not in WORKLOADS:
                raise WorkloadError(f"unknown YCSB workload {name!r}")
            workload = WORKLOADS[name]
            if name == "D":
                # Fig 7 runs D with all three request distributions.
                for distribution in ("latest", "zipfian", "uniform"):
                    variant = workload.with_distribution(distribution)
                    variants.append((variant.name, variant))
            else:
                variants.append((name, workload))
        return variants


def p99_series(cxl_fraction: float, qps_points: list[float],
               results: list[RunResult]) -> Series:
    """The Fig-6 curve of one placement from its points' results."""
    series = Series(f"{int(cxl_fraction * 100)}%-CXL", x_label="QPS",
                    y_label="p99 (us)")
    for qps, result in zip(qps_points, results):
        series.append(qps, result.p99_us)
    return series
