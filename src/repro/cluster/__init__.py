"""``repro.cluster`` — multi-host CXL memory pooling.

N kvstore shards share one CXL memory pool: each host fills its local
DRAM budget and spills the rest of its working set into a carved HDM
slice (:mod:`~repro.cluster.pool`), a load balancer routes pool-served
requests (:mod:`~repro.cluster.routing`), open-loop zipfian clients
offer cluster-scale QPS (:mod:`~repro.cluster.traffic`), and the DES
simulator (:mod:`~repro.cluster.sim`) reports end-to-end tail latency
per host and fleet-wide — including degraded fleets where one host's
CXL link dies mid-run.  See docs/CLUSTER.md.
"""

from .pool import PoolAllocator, PoolSlice, SpillPlan, plan_spill
from .resilience import (CircuitBreaker, PRESETS, ResiliencePolicy,
                         ResilienceStats, RetryBudget, SHED_REJECT_NS,
                         hedge_delay_ns, make_policy, parse_policy)
from .routing import (HashShardRouter, HostView, LeastLoadedRouter,
                      Router, make_router)
from .sim import (ClusterResult, ClusterSim, HostResult, LinkDown,
                  REROUTE_HOP_NS)
from .topology import (ClusterTopology, Host, HostSpec, POOL_HOP_NS,
                       RECORD_BYTES)
from .traffic import OpenLoopZipfian

__all__ = [
    "CircuitBreaker", "ClusterResult", "ClusterSim", "ClusterTopology",
    "HashShardRouter", "Host", "HostResult", "HostSpec", "HostView",
    "LeastLoadedRouter", "LinkDown", "OpenLoopZipfian", "POOL_HOP_NS",
    "PRESETS", "PoolAllocator", "PoolSlice", "RECORD_BYTES",
    "REROUTE_HOP_NS", "ResiliencePolicy", "ResilienceStats",
    "RetryBudget", "Router", "SHED_REJECT_NS", "SpillPlan",
    "hedge_delay_ns", "make_policy", "make_router", "parse_policy",
    "plan_spill",
]
