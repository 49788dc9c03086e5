"""ClusterSim end-to-end behavior: topology, faults, and degradation."""

import numpy as np
import pytest

from repro.cluster import (ClusterSim, ClusterTopology, LinkDown,
                           OpenLoopZipfian)
from repro.config import hetero_pooled_testbed
from repro.errors import ClusterError
from repro.faults import FaultPlan

PLAN = FaultPlan(stall_rate=0.02, timeout_rate=0.005, poison_rate=0.002,
                 seed=13)


def small_topology(pool_share=0.5, num_hosts=3):
    return ClusterTopology(num_hosts, keys_per_host=10_000,
                           pool_share=pool_share)


class TestTopology:
    def test_pool_utilization_equals_pool_share(self):
        for share in (0.25, 0.5, 1.0):
            topo = small_topology(pool_share=share)
            assert topo.pool_utilization() == pytest.approx(share,
                                                            abs=1e-6)

    def test_zero_share_keeps_everything_local(self):
        topo = small_topology(pool_share=0.0)
        assert topo.pool_utilization() == 0.0
        assert all(host.slice is None for host in topo.hosts)

    def test_pool_path_is_slower_than_dram(self):
        topo = small_topology()
        assert topo.pool_read_ns() > 2 * topo.dram_read_ns()

    def test_shard_partitioning_covers_the_keyspace(self):
        topo = small_topology(num_hosts=3)
        assert topo.shard_of(0) == 0
        assert topo.shard_of(topo.total_keys - 1) == 2
        with pytest.raises(ClusterError):
            topo.shard_of(topo.total_keys)


class TestHealthyRun:
    def test_every_request_completes_and_percentiles_order(self):
        sim = ClusterSim(small_topology(), seed=4)
        result = sim.run(qps=60_000.0, requests=1_200)
        assert result.requests == 1_200
        assert sum(h.requests for h in result.hosts) == 1_200
        assert result.p99_ns >= result.p50_ns > 0
        assert result.injected == 0 and result.recovered == 0
        assert result.rerouted == 0 and result.link_down_host is None

    def test_p99_grows_with_offered_load(self):
        sim = ClusterSim(small_topology(), seed=4)
        light = sim.run(qps=40_000.0, requests=1_200)
        heavy = sim.run(qps=200_000.0, requests=1_200)
        assert heavy.p99_ns > light.p99_ns

    def test_bigger_pool_share_raises_the_tail(self):
        lo = ClusterSim(small_topology(pool_share=0.1), seed=4).run(
            qps=120_000.0, requests=1_200)
        hi = ClusterSim(small_topology(pool_share=0.9), seed=4).run(
            qps=120_000.0, requests=1_200)
        assert hi.p99_ns > lo.p99_ns
        assert hi.pool_utilization > lo.pool_utilization


class TestFaultPlans:
    def test_per_host_injected_equals_recovered(self):
        sim = ClusterSim(small_topology(),
                         fault_plans={0: PLAN, 1: PLAN, 2: PLAN}, seed=4)
        result = sim.run(qps=80_000.0, requests=1_500)
        assert result.injected > 0
        for host in result.hosts:
            assert host.injected == host.recovered

    def test_faults_inflate_the_tail(self):
        healthy = ClusterSim(small_topology(), seed=4).run(
            qps=80_000.0, requests=1_500)
        hot_plan = FaultPlan(stall_rate=0.2, timeout_rate=0.05, seed=13)
        faulty = ClusterSim(small_topology(),
                            fault_plans={i: hot_plan for i in range(3)},
                            seed=4).run(qps=80_000.0, requests=1_500)
        assert faulty.p99_ns > healthy.p99_ns
        assert faulty.requests == healthy.requests   # never correctness

    def test_plan_for_unknown_host_rejected(self):
        with pytest.raises(ClusterError, match="unknown host"):
            ClusterSim(small_topology(), fault_plans={7: PLAN})


class TestLinkDown:
    def test_downed_host_sheds_and_survivors_absorb(self):
        topo = small_topology()
        baseline = ClusterSim(topo, seed=4).run(qps=100_000.0,
                                                requests=2_000)
        down = ClusterSim(small_topology(), seed=4,
                          link_down=LinkDown(host=1, at_fraction=0.4))
        degraded = down.run(qps=100_000.0, requests=2_000)
        assert degraded.requests == 2_000          # nothing is dropped
        assert degraded.rerouted > 0
        assert degraded.link_down_host == 1
        # Reroutes are charged to the downed host and recovered there.
        downed = degraded.hosts[1]
        assert downed.injected == downed.recovered == degraded.rerouted
        assert downed.requests < baseline.hosts[1].requests
        survivors = [degraded.hosts[0], degraded.hosts[2]]
        assert sum(h.absorbed for h in survivors) == degraded.rerouted

    def test_link_down_needs_a_survivor(self):
        solo = ClusterTopology(1, keys_per_host=10_000)
        with pytest.raises(ClusterError, match="survivor"):
            ClusterSim(solo, link_down=LinkDown(host=0))

    def test_link_down_host_must_exist(self):
        with pytest.raises(ClusterError, match="outside the fleet"):
            ClusterSim(small_topology(), link_down=LinkDown(host=9))

    def test_at_fraction_bounds(self):
        with pytest.raises(ClusterError):
            LinkDown(host=0, at_fraction=0.0)
        with pytest.raises(ClusterError):
            LinkDown(host=0, at_fraction=1.0)


class TestPlacement:
    """The up-front per-trace placement equals the per-key reference."""

    @pytest.mark.parametrize("pool_share,hetero", [
        (0.0, False), (0.5, False), (1.0, False), (0.5, True)])
    def test_matches_shard_of_and_pool_resident(self, pool_share, hetero):
        topo = ClusterTopology(
            4, keys_per_host=5_000, pool_share=pool_share,
            testbed=hetero_pooled_testbed(2) if hetero else None)
        sim = ClusterSim(topo, seed=9)
        keys = OpenLoopZipfian(qps=1e5, num_requests=3_000,
                               keyspace=topo.total_keys, theta=0.9,
                               seed=9).keys
        owners, residents = sim.placement(keys)
        assert owners.tolist() == [topo.shard_of(k) for k in keys.tolist()]
        assert residents.tolist() == [sim.pool_resident(k)
                                      for k in keys.tolist()]
        share = residents.mean()
        if pool_share in (0.0, 1.0):
            assert share == pool_share
        else:
            assert 0.4 < share < 0.6

    def test_keeps_the_keyspace_bounds_check(self):
        sim = ClusterSim(small_topology(), seed=9)
        for key in (-1, small_topology().total_keys):
            with pytest.raises(ClusterError, match="outside keyspace"):
                sim.placement(np.array([5, key], dtype=np.int64))


class TestInputGuards:
    """Bad run and topology inputs fail up front, naming the field."""

    @pytest.mark.parametrize("qps", [float("nan"), float("inf"), 0.0])
    def test_qps_must_be_positive_and_finite(self, qps):
        with pytest.raises(ClusterError, match="qps"):
            ClusterSim(small_topology(), seed=4).run(qps, requests=100)

    @pytest.mark.parametrize("requests", [2.5, 0, True])
    def test_requests_must_be_a_positive_integer(self, requests):
        with pytest.raises(ClusterError, match="requests"):
            ClusterSim(small_topology(), seed=4).run(1e5,
                                                     requests=requests)

    @pytest.mark.parametrize("keys", [0, -3, 10_000.0, 2.5])
    def test_keys_per_host_must_be_a_positive_integer(self, keys):
        with pytest.raises(ClusterError, match="keys_per_host"):
            ClusterTopology(3, keys_per_host=keys)

    def test_numpy_integers_are_counts(self):
        topo = ClusterTopology(np.int64(2), keys_per_host=np.int64(5_000))
        result = ClusterSim(topo, seed=4).run(1e5, requests=np.int64(50))
        assert result.requests == 50


class TestRouting:
    def test_least_loaded_flattens_the_saturated_tail(self):
        qps, requests = 250_000.0, 2_000
        hashed = ClusterSim(small_topology(), router="hash-shard",
                            seed=4).run(qps=qps, requests=requests,
                                        theta=0.99)
        balanced = ClusterSim(small_topology(), router="least-loaded",
                              seed=4).run(qps=qps, requests=requests,
                                          theta=0.99)
        assert balanced.p99_ns < hashed.p99_ns
