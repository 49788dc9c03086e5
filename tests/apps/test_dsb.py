"""DeathStarBench social network: Fig 10 shapes."""

import pytest

from repro import build_system, combined_testbed
from repro.apps.dsb import (
    DsbRunner,
    RequestType,
    ServiceStage,
    SocialNetwork,
    memory_breakdown,
)
from repro.apps.dsb.socialnet import (
    COMPONENTS,
    MIXED_WORKLOAD,
    PARALLEL_GROUPS,
)
from repro.apps.dsb.service import StageRuntime
from repro.errors import WorkloadError


def mean_latency_ns(net: SocialNetwork, request: RequestType) -> float:
    """Zero-load *work* per request: the serialized sum over all visits."""
    return sum(stage.mean_service_ns * visits
               for stage, visits in net.recipe(request))


def zero_load_latency_ns(net: SocialNetwork, request: RequestType) -> float:
    """Critical-path latency: sequential stages + max parallel leg."""
    group = PARALLEL_GROUPS[request]
    sequential = 0.0
    legs = []
    for stage, visits in net.recipe(request):
        work = stage.mean_service_ns * visits
        if stage.stage.name in group:
            legs.append(work)
        else:
            sequential += work
    return sequential + (max(legs) if legs else 0.0)


def database_load_ns(net: SocialNetwork, request: RequestType) -> float:
    """Time spent in pinnable (database) stages per request."""
    return sum(stage.mean_service_ns * visits
               for stage, visits in net.recipe(request)
               if stage.stage.pinnable)


@pytest.fixture(scope="module")
def system():
    return build_system(combined_testbed())


@pytest.fixture(scope="module")
def dram_net(system):
    return SocialNetwork(system, database_node=system.LOCAL_NODE)


@pytest.fixture(scope="module")
def cxl_net(system):
    return SocialNetwork(system, database_node=system.cxl_node_id)


class TestComponents:
    def test_only_databases_are_pinnable(self):
        pinnable = {name for name, stage in COMPONENTS.items()
                    if stage.pinnable}
        assert pinnable == {"cache", "storage"}

    def test_compute_cannot_be_pinned_to_cxl(self, system):
        with pytest.raises(WorkloadError):
            StageRuntime(COMPONENTS["nginx"], system,
                         system.cxl_node_id)

    def test_bad_stage_parameters_rejected(self):
        with pytest.raises(WorkloadError):
            ServiceStage("x", workers=0, cpu_ns=1.0, mem_lines=1,
                         resident_bytes=1)

    def test_mixed_workload_matches_paper(self):
        """'60% read-home-timeline, 30% read-user-timeline, and 10%
        composing-post'."""
        assert MIXED_WORKLOAD[RequestType.READ_HOME_TIMELINE] == 0.60
        assert MIXED_WORKLOAD[RequestType.READ_USER_TIMELINE] == 0.30
        assert MIXED_WORKLOAD[RequestType.COMPOSE_POST] == 0.10


class TestLatencyStructure:
    def test_latencies_are_ms_level(self, dram_net):
        """§5.3: 'the tail latency in DSB is at the millisecond level'."""
        for request in RequestType:
            assert mean_latency_ns(dram_net, request) > 0.5e6

    def test_compose_heaviest_on_databases(self, dram_net):
        """'composing posts involve more database operations'."""
        compose = database_load_ns(dram_net, RequestType.COMPOSE_POST)
        user = database_load_ns(dram_net, RequestType.READ_USER_TIMELINE)
        assert compose > 3 * user

    def test_home_timeline_skips_storage(self, dram_net):
        """'reading home timeline ... does not operate on the
        databases' (beyond the cache)."""
        stages = [stage.stage.name for stage, _ in
                  dram_net.recipe(RequestType.READ_HOME_TIMELINE)]
        assert "storage" not in stages

    def test_compose_gap_visible_user_timeline_not(self, dram_net,
                                                   cxl_net):
        """Fig 10: 'a tail latency difference in the case of composing
        posts, while there is little to no difference in the case of
        reading user timeline'."""
        def gap(request):
            dram = mean_latency_ns(dram_net, request)
            cxl = mean_latency_ns(cxl_net, request)
            return cxl / dram - 1.0

        assert gap(RequestType.COMPOSE_POST) > 0.12
        assert gap(RequestType.READ_USER_TIMELINE) < 0.08

    def test_mixed_saturation_similar(self, dram_net, cxl_net):
        """'the overall saturation point is similar to running the
        database on DDR5-L8'."""
        dram = dram_net.saturation_qps(MIXED_WORKLOAD)
        cxl = cxl_net.saturation_qps(MIXED_WORKLOAD)
        assert cxl == pytest.approx(dram, rel=0.35)


class TestForkJoin:
    """Compose-post overlaps its ML inference with the database writes."""

    def test_critical_path_below_serial_work(self, dram_net):
        compose = RequestType.COMPOSE_POST
        assert zero_load_latency_ns(dram_net, compose) < \
            mean_latency_ns(dram_net, compose)

    def test_read_paths_are_sequential(self, dram_net):
        for request in (RequestType.READ_USER_TIMELINE,
                        RequestType.READ_HOME_TIMELINE):
            assert zero_load_latency_ns(dram_net, request) == \
                pytest.approx(mean_latency_ns(dram_net, request))

    def test_parallel_group_names_real_stages(self):
        from repro.apps.dsb.socialnet import COMPONENTS, PARALLEL_GROUPS
        for group in PARALLEL_GROUPS.values():
            assert group <= set(COMPONENTS)

    def test_des_p99_tracks_critical_path_not_serial_sum(self, system,
                                                         dram_net):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        result = runner.run(200, mix={RequestType.COMPOSE_POST: 1.0},
                            requests=1200)
        compose = RequestType.COMPOSE_POST
        critical = zero_load_latency_ns(dram_net, compose) / 1e6
        serial = mean_latency_ns(dram_net, compose) / 1e6
        # p99 (with jitter + light queueing) sits above the critical
        # path but below what a fully serialized chain would cost.
        assert critical < result.p99_ms < serial * 1.6

    def test_cxl_gap_survives_parallelism(self, dram_net, cxl_net):
        compose = RequestType.COMPOSE_POST
        gap = (zero_load_latency_ns(cxl_net, compose)
               / zero_load_latency_ns(dram_net, compose))
        assert gap > 1.12


class TestBreakdown:
    def test_fractions_sum_to_one(self):
        assert sum(memory_breakdown().values()) == pytest.approx(1.0)

    def test_databases_dominate_memory(self):
        """The pinned components hold most of the footprint — the paper's
        premise for offloading them."""
        breakdown = memory_breakdown()
        assert breakdown["storage"] + breakdown["cache"] > 0.6


class TestDesRuns:
    def test_compose_p99_gap_under_load(self, system):
        dram = DsbRunner(system, database_node=system.LOCAL_NODE)
        cxl = DsbRunner(system, database_node=system.cxl_node_id)
        mix = {RequestType.COMPOSE_POST: 1.0}
        dram_p99 = dram.run(400, mix=mix, requests=1500).p99_ms
        cxl_p99 = cxl.run(400, mix=mix, requests=1500).p99_ms
        assert cxl_p99 > 1.1 * dram_p99

    def test_user_timeline_p99_similar(self, system):
        dram = DsbRunner(system, database_node=system.LOCAL_NODE)
        cxl = DsbRunner(system, database_node=system.cxl_node_id)
        mix = {RequestType.READ_USER_TIMELINE: 1.0}
        dram_p99 = dram.run(400, mix=mix, requests=1500).p99_ms
        cxl_p99 = cxl.run(400, mix=mix, requests=1500).p99_ms
        assert cxl_p99 == pytest.approx(dram_p99, rel=0.15)

    def test_mixed_run_completes(self, system):
        runner = DsbRunner(system, database_node=system.cxl_node_id)
        result = runner.run(300, requests=1200)
        assert result.requests == 1200
        assert result.p99_ms > result.mean_ms

    def test_overload_is_detected(self, system):
        runner = DsbRunner(system, database_node=system.cxl_node_id)
        saturation = runner.network.saturation_qps(MIXED_WORKLOAD)
        result = runner.run(saturation * 2.0, requests=2500)
        assert result.saturated or result.p99_ms > 20.0

    def test_bad_mix_rejected(self, system):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        with pytest.raises(WorkloadError):
            runner.run(100, mix={RequestType.COMPOSE_POST: 0.5})

    def test_zero_qps_rejected(self, system):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        with pytest.raises(WorkloadError):
            runner.run(0.0)

    def test_nan_qps_rejected(self, system):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        with pytest.raises(WorkloadError, match="qps"):
            runner.run(float("nan"))

    def test_empty_mix_rejected(self, system):
        """Only ``mix=None`` means the mixed workload."""
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        with pytest.raises(WorkloadError, match="mix"):
            runner.run(100, mix={})

    @pytest.mark.parametrize("share", [-0.5, float("nan")])
    def test_negative_or_nan_share_rejected(self, system, share):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        mix = {RequestType.COMPOSE_POST: 1.5,
               RequestType.READ_USER_TIMELINE: share}
        with pytest.raises(WorkloadError,
                           match=r"mix\[read-user-timeline\]"):
            runner.run(100, mix=mix)

    def test_non_request_type_key_rejected(self, system):
        runner = DsbRunner(system, database_node=system.LOCAL_NODE)
        with pytest.raises(WorkloadError, match="'compose-post'"):
            runner.run(100, mix={"compose-post": 1.0})

    def test_p99_curve_labels_database_tier(self, system):
        dram = DsbRunner(system, database_node=system.LOCAL_NODE)
        cxl = DsbRunner(system, database_node=system.cxl_node_id)
        dram_curve = dram.p99_curve([200.0], requests=400)
        cxl_curve = cxl.p99_curve(
            [200.0], request_type=RequestType.COMPOSE_POST, requests=400)
        assert dram_curve.name == "mixed@dram-local"
        assert cxl_curve.name == "compose-post@cxl"
        assert len(dram_curve) == 1
