"""The social-network application: components, request recipes, breakdown.

§5.3: "we pinned the components with high working set size (i.e., the
storage and caching applications) to either DDR5-L8 or CXL memory.  We
left the computation-intensive parts to run purely on DDR5-L8."

Request recipes encode the trace analysis the paper reports: composing
a post "involve[s] more database operations, which puts a heavier load
on the CXL memory", while "most of the response time in reading user
timeline is spent on the nginx front end".  Reading home timeline "does
not operate on the databases" and is served from the cache.
"""

from __future__ import annotations

import enum

from ...cpu.system import System
from ...errors import WorkloadError
from ...units import GIB, MS, US
from .service import ServiceStage, StageRuntime

COMPONENTS: dict[str, ServiceStage] = {
    "nginx": ServiceStage("nginx", workers=8, cpu_ns=0.55 * MS,
                          mem_lines=40, resident_bytes=1 * GIB),
    "logic": ServiceStage("logic", workers=8, cpu_ns=0.35 * MS,
                          mem_lines=60, resident_bytes=2 * GIB),
    "ml-infer": ServiceStage("ml-infer", workers=4, cpu_ns=0.30 * MS,
                             mem_lines=120, resident_bytes=1 * GIB),
    "cache": ServiceStage("cache", workers=6, cpu_ns=40 * US,
                          mem_lines=150, resident_bytes=6 * GIB,
                          pinnable=True),
    "storage": ServiceStage("storage", workers=4, cpu_ns=150 * US,
                            mem_lines=500, resident_bytes=9 * GIB,
                            pinnable=True),
}


class RequestType(enum.Enum):
    """The DSB social-network request types of Fig 10."""

    COMPOSE_POST = "compose-post"
    READ_USER_TIMELINE = "read-user-timeline"
    READ_HOME_TIMELINE = "read-home-timeline"


# Stage visit sequences per request type.  (stage, visits); fractional
# visits model probabilistic paths (a cache miss escalating to storage).
# DSB's compose-post additionally *fans out*: after the frontend, the
# text/media/user services and their database writes proceed in
# parallel and join before the reply — PARALLEL_GROUPS below names the
# stages whose visits overlap, which the DES runner exploits.
RECIPES: dict[RequestType, list[tuple[str, float]]] = {
    RequestType.COMPOSE_POST: [
        ("nginx", 1.0), ("logic", 2.0), ("ml-infer", 1.0),
        ("cache", 2.0), ("storage", 3.0),
    ],
    RequestType.READ_USER_TIMELINE: [
        ("nginx", 1.5),             # the frontend dominates this path
        ("logic", 1.0), ("cache", 1.0), ("storage", 0.2),
    ],
    RequestType.READ_HOME_TIMELINE: [
        ("nginx", 1.0), ("logic", 1.0), ("cache", 1.0),
        # no storage visits: home timeline does not touch the databases
    ],
}

# Stages whose visits run concurrently (fork/join) per request type.
# Compose-post's ML inference overlaps the database writes, as in DSB's
# service graph; read paths are sequential chains.
PARALLEL_GROUPS: dict[RequestType, frozenset[str]] = {
    RequestType.COMPOSE_POST: frozenset({"ml-infer", "cache", "storage"}),
    RequestType.READ_USER_TIMELINE: frozenset(),
    RequestType.READ_HOME_TIMELINE: frozenset(),
}

MIXED_WORKLOAD: dict[RequestType, float] = {
    RequestType.READ_HOME_TIMELINE: 0.60,
    RequestType.READ_USER_TIMELINE: 0.30,
    RequestType.COMPOSE_POST: 0.10,
}
"""Fig 10: "60% read-home-timeline, 30% read-user-timeline, and 10%
composing-post"."""


class SocialNetwork:
    """Component runtimes with databases pinned to a chosen node."""

    def __init__(self, system: System, *, database_node: int) -> None:
        self.system = system
        self.database_node = database_node
        self.stages: dict[str, StageRuntime] = {}
        for name, stage in COMPONENTS.items():
            node = database_node if stage.pinnable else system.LOCAL_NODE
            self.stages[name] = StageRuntime(stage, system, node)

    def recipe(self, request: RequestType) -> list[tuple[StageRuntime, float]]:
        return [(self.stages[name], visits)
                for name, visits in RECIPES[request]]

    def saturation_qps(self, mix: dict[RequestType, float]) -> float:
        """Bottleneck-stage capacity under a request mix."""
        total = sum(mix.values())
        if abs(total - 1.0) > 1e-9:
            raise WorkloadError(f"mix sums to {total}, not 1")
        worst = float("inf")
        for name, runtime in self.stages.items():
            demand_ns = sum(
                share * visits * runtime.mean_service_ns
                for request, share in mix.items()
                for stage_name, visits in RECIPES[request]
                if stage_name == name)
            if demand_ns > 0:
                worst = min(worst, runtime.stage.workers / (demand_ns / 1e9))
        return worst


def memory_breakdown() -> dict[str, float]:
    """Fig 10 (right): resident memory share by functionality."""
    total = sum(stage.resident_bytes for stage in COMPONENTS.values())
    return {name: stage.resident_bytes / total
            for name, stage in COMPONENTS.items()}
