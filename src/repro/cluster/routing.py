"""Pluggable request routing for the cluster load balancer.

Two policies cover the regimes the cluster experiments need:

* :class:`HashShardRouter` — classic key-affinity routing: every key
  has one home shard (its partition owner) and requests go there.
  Deterministic, cache-friendly, and the baseline real KV fleets run.
* :class:`LeastLoadedRouter` — pool-aware routing: because the CXL
  pool is shared, *any* host can serve a pool-resident record over its
  own CXL link, so the balancer may send a request to the least-loaded
  host instead of the owner.  Only pool-resident requests are routed at
  all — a local-DRAM-resident record exists solely in its owner's
  address space, so the simulator pins those to the owner.

Routers never see simulation internals — they pick from a list of
:class:`HostView` snapshots (up/down, in-flight depth), which keeps
them unit-testable and keeps routing decisions deterministic for a
fixed arrival order.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import ClusterError, unknown_option


@dataclass
class HostView:
    """What a router may observe about one host."""

    index: int
    up: bool = True                    # CXL link (and host) healthy
    in_flight: int = 0                 # busy slots + queued requests


class Router:
    """Base class: picks a host index for a keyed request."""

    name = "router"

    def route(self, key: int, owner: int,
              hosts: list[HostView]) -> int:
        raise NotImplementedError

    @staticmethod
    def survivors(hosts: list[HostView]) -> list[HostView]:
        alive = [host for host in hosts if host.up]
        if not alive:
            raise ClusterError("no surviving hosts to route to")
        return alive


class HashShardRouter(Router):
    """Key-affinity routing with deterministic failover probing.

    The owner shard serves its keys; when the owner is marked down the
    request probes forward (owner+1, owner+2, …) to the first healthy
    host — the same deterministic rehash every replica would compute,
    so parallel and serial runs agree without coordination.
    """

    name = "hash-shard"

    def route(self, key: int, owner: int,
              hosts: list[HostView]) -> int:
        total = len(hosts)
        for probe in range(total):
            candidate = (owner + probe) % total
            if hosts[candidate].up:
                return candidate
        raise ClusterError("no surviving hosts to route to")


class LeastLoadedRouter(Router):
    """Route to the healthy host with the fewest requests in flight.

    Ties break toward the owner (affinity is free when load is equal),
    then toward the lowest index — a total order, so the same arrival
    sequence always routes identically.
    """

    name = "least-loaded"

    def route(self, key: int, owner: int,
              hosts: list[HostView]) -> int:
        alive = self.survivors(hosts)
        return min(alive,
                   key=lambda host: (host.in_flight,
                                     host.index != owner,
                                     host.index)).index


ROUTERS: dict[str, type[Router]] = {
    HashShardRouter.name: HashShardRouter,
    LeastLoadedRouter.name: LeastLoadedRouter,
}


def make_router(name: str) -> Router:
    """Instantiate a registered routing policy by name."""
    if name not in ROUTERS:
        raise ClusterError(unknown_option("router", name, ROUTERS))
    return ROUTERS[name]()
