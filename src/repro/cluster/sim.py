"""The cluster simulator: N KV shards, one pool, open-loop clients.

Each host runs the kvstore service-time model (CPU work plus dependent
memory misses, log-normal jitter on both) against the perfmodel read
paths of the shared :class:`~repro.cluster.topology.ClusterTopology`:
a record either lives in the host's local DRAM (~106 ns per miss) or
in its CXL pool slice (device path plus a fabric hop).  Which records
are pool-resident is a *stable* per-key decision — counter-based
(:func:`~repro.sim.rng.decision_uniform`, keyed by owner and key), so
the placement never depends on request order and serial/parallel runs
agree byte for byte.

Fault semantics
---------------
Two fault layers compose:

* a per-host :class:`~repro.faults.FaultPlan` perturbs that host's CXL
  (pool) accesses — stalls, transient timeouts, poisoned reads — with
  the same injected/recovered accounting the ``degraded-cxl``
  experiment pins;
* a :class:`LinkDown` event kills one host's CXL link mid-run.  From
  that instant the downed host can no longer reach its pool slice, so
  pool-resident requests owned by it are *rerouted* to a surviving
  host — possible precisely because the pool is shared fabric memory,
  not host-private DRAM.  Every reroute counts one injected fault and,
  on completion at the survivor, one recovery.  Local-DRAM-resident
  keys stay on the downed host (its DRAM is fine; only the link died).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from ..apps.kvstore.store import (CPU_BASE_NS, CPU_JITTER_SIGMA,
                                  EFFECTIVE_MISSES_MEAN, MISS_JITTER_SIGMA)
from ..errors import ClusterError
from ..faults import FaultPlan
from ..faults.injector import FaultInjector, injector_for
from ..sim import Engine, LatencyRecorder, Server
from ..sim.rng import (decision_uniform, decision_uniforms, recall,
                       remember, substream)
from ..telemetry import NULL_TELEMETRY, Telemetry
from .resilience import (DEADLINE_WAIT, HEDGE_WAIT, RETRY_BACKOFF,
                         SHED_REJECT, SHED_REJECT_NS, ZERO_POLICY,
                         CircuitBreaker, ResiliencePolicy,
                         ResilienceStats, RetryBudget, hedge_delay_ns,
                         parse_policy)
from .routing import HostView, Router, make_router
from .topology import ClusterTopology
from .traffic import OpenLoopZipfian

CLUSTER_TRACK = "cluster"
"""Telemetry track prefix; per-host spans land on ``cluster.host<i>``."""

WRITE_MISS_FACTOR = 1.15
"""Extra dirty-line traffic of a mutation (matches the kvstore model)."""

CACHE_HIT_MISS_FACTOR = 0.1
"""Miss-count multiplier when the record is LLC-hot."""

REROUTE_HOP_NS = 1_500.0
"""Balancer redirect to a survivor after a link-down routing failure."""


@dataclass(frozen=True)
class LinkDown:
    """Kill one host's CXL link partway through the run.

    ``at_fraction`` places the failure on the arrival timeline (0.5 =
    midway through the trace), so the event scales with offered load
    instead of being pinned to an absolute nanosecond.
    """

    host: int
    at_fraction: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.at_fraction < 1.0:
            raise ClusterError(
                f"at_fraction must be in (0, 1): {self.at_fraction}")

    def to_dict(self) -> dict:
        return {"host": self.host, "at_fraction": self.at_fraction}


@dataclass(frozen=True)
class HostResult:
    """One host's view of a cluster run."""

    name: str
    index: int
    requests: int                      # requests this host served
    p50_ns: float                      # sojourn percentiles of those
    p99_ns: float
    injected: int                      # plan faults + link-down hits
    recovered: int                     # absorbed plan faults + reroutes
    absorbed: int                      # reroutes this host served
    pool_fraction: float               # shard bytes living in the pool

    @property
    def fault_free(self) -> bool:
        return self.injected == 0 and self.recovered == 0


@dataclass(frozen=True)
class ClusterResult:
    """Cluster-wide outcome of one (QPS, skew, pool-share) point."""

    qps: float
    theta: float
    pool_share: float
    requests: int                      # completed end-to-end
    achieved_qps: float
    p50_ns: float                      # end-to-end sojourn percentiles
    p99_ns: float
    mean_service_ns: float
    pool_utilization: float
    rerouted: int                      # link-down reroutes, fleet-wide
    link_down_host: int | None
    hosts: tuple[HostResult, ...]
    resilience: ResilienceStats | None = None

    @property
    def injected(self) -> int:
        return sum(host.injected for host in self.hosts)

    @property
    def recovered(self) -> int:
        return sum(host.recovered for host in self.hosts)

    @property
    def p99_us(self) -> float:
        return self.p99_ns / 1000.0

    @property
    def successes(self) -> int:
        """Requests that got an answer (everything, minus policy
        failures — a policy-free run succeeds by definition)."""
        if self.resilience is None:
            return self.requests
        return self.resilience.successes

    @property
    def goodput_qps(self) -> float:
        """Achieved throughput scaled to successful answers only."""
        if self.requests == 0:
            return 0.0
        return self.achieved_qps * (self.successes / self.requests)


class _Request:
    """One client request; it settles exactly once."""

    __slots__ = ("index", "arrival", "key", "is_write", "owner",
                 "resident", "settled", "won", "outstanding", "tried",
                 "chain", "pending_retry")

    def __init__(self, index: int, arrival: float, key: int,
                 is_write: bool, owner: int, resident: bool) -> None:
        self.index = index
        self.arrival = arrival
        self.key = key
        self.is_write = is_write
        self.owner = owner
        self.resident = resident
        self.settled = False           # an outcome bucket was counted
        self.won = False               # settled by a successful attempt
        self.outstanding = 0           # attempts the client still awaits
        self.tried = ()                # hosts an attempt was queued at
        self.chain = 0                 # retries issued so far
        self.pending_retry = False     # a retry is in its backoff


class _Attempt:
    """One try at serving a request: the primary, a retry or the hedge.

    The engine and the host's :class:`~repro.sim.Server` carry it as
    the callback argument, so an attempt costs one object rather than
    a closure per lifecycle step.
    """

    __slots__ = ("req", "number", "prefix", "issue", "hedge", "target",
                 "reroute", "done", "abandoned", "timer", "fault_parts",
                 "recoveries", "grant", "service")

    def __init__(self, req: _Request, number: int, prefix: tuple,
                 issue: float, hedge: bool, target: int,
                 reroute: bool) -> None:
        self.req = req
        self.number = number           # 0 = primary/hedge, k = retry k
        self.prefix = prefix           # policy span segments so far
        self.issue = issue
        self.hedge = hedge
        self.target = target
        self.reroute = reroute         # owner's link was down at launch
        self.done = False              # served or cancelled
        self.abandoned = False         # its deadline fired first
        self.timer = None
        self.fault_parts = ()
        self.recoveries = 0


def _fixed_columns(topo: ClusterTopology, rows: np.ndarray, waits: list,
                   reroutes: list, failed: list, cpu: np.ndarray,
                   mem: np.ndarray, misses: np.ndarray, owners: np.ndarray,
                   residents: np.ndarray) -> list[tuple]:
    """The span columns every served request has, in waterfall order.

    ``rows`` are the recorded requests in record order; the ``failed``
    positions among them get zeros here (their waterfall is sparse).
    Each read path's parts are ``misses * per_miss``, with a residual
    on the path's last part so the parts close exactly on ``mem_ns``.
    """
    served = np.ones(len(rows), dtype=bool)
    served[failed] = False
    columns = [("client.wait", np.array(waits)),
               ("route.reroute", np.where(reroutes, REROUTE_HOP_NS, 0.0)),
               ("shard.cpu", np.where(served, cpu[rows], 0.0))]
    owner, resident = owners[rows], residents[rows]
    # A pooled record reads through its owner's device.
    paths = {topo.dram_components(): served & ~resident}
    for host in range(topo.num_hosts):
        parts = topo.pool_components(host)
        on_host = served & resident & (owner == host)
        paths[parts] = paths[parts] | on_host if parts in paths else on_host
    count, mem_ns = misses[rows], mem[rows]
    for parts, on_path in paths.items():
        if not on_path.any():
            continue
        accounted = np.zeros(len(rows))
        for part, per_miss in parts[:-1]:
            dur = count * per_miss
            accounted += dur
            columns.append((part, np.where(on_path, dur, 0.0)))
        columns.append((parts[-1][0], np.where(on_path, mem_ns - accounted,
                                               0.0)))
    return columns


def _sparse_columns(count: int, failed: Mapping[int, list],
                    extras: Mapping[int, tuple]
                    ) -> tuple[list[tuple], list[tuple]]:
    """Zero-padded span columns before and after the fixed ones.

    Before: a failed request's whole waterfall, or a served request's
    policy prefix; after: a served request's fault parts.
    """
    heads = dict(failed)
    tails = {}
    for row, (prefix, fault_parts) in extras.items():
        if prefix:
            heads[row] = prefix
        if fault_parts:
            tails[row] = fault_parts
    return _padded(count, heads), _padded(count, tails)


def _padded(count: int, segments_by_row: Mapping[int, tuple]) -> list[tuple]:
    """One zero-padded column per (position, component) that occurs.

    A request has one segment per position, so the columns of one
    position never overlap and each request keeps its segment order.
    """
    cells: dict[tuple[int, str], tuple[list, list]] = {}
    for row, segments in segments_by_row.items():
        for pos, (name, dur) in enumerate(segments):
            cell = cells.get((pos, name))
            if cell is None:
                cell = cells[pos, name] = ([], [])
            cell[0].append(row)
            cell[1].append(dur)
    columns = []
    for (_, name), (rows, durs) in sorted(cells.items(),
                                          key=lambda item: item[0][0]):
        values = np.zeros(count)
        values[rows] = durs
        columns.append((name, values))
    return columns


class ClusterSim:
    """Drives a :class:`ClusterTopology` under open-loop zipfian load."""

    def __init__(self, topology: ClusterTopology, *,
                 router: str | Router = "hash-shard", seed: int = 1,
                 fault_plans: Mapping[int, FaultPlan] | None = None,
                 link_down: LinkDown | None = None,
                 policy: ResiliencePolicy | str | None = None,
                 telemetry: Telemetry | None = None) -> None:
        self.topology = topology
        self.router = router if isinstance(router, Router) \
            else make_router(router)
        self.seed = seed
        if isinstance(policy, str):
            policy = parse_policy(policy)
        if policy is not None and not policy.active:
            # The all-zero policy is no policy: the run reports no
            # ResilienceStats, exactly like policy=None.
            policy = None
        self.policy = policy
        self.fault_plans = dict(fault_plans) if fault_plans else {}
        for host in self.fault_plans:
            if not 0 <= host < topology.num_hosts:
                raise ClusterError(
                    f"fault plan for unknown host {host}")
        if link_down is not None \
                and not 0 <= link_down.host < topology.num_hosts:
            raise ClusterError(
                f"link_down host {link_down.host} outside the fleet")
        if link_down is not None and topology.num_hosts < 2:
            raise ClusterError(
                "link_down needs a survivor: add at least one more host")
        self.link_down = link_down
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    # -- stable per-key placement ------------------------------------------

    def pool_resident(self, key: int) -> bool:
        """Whether ``key``'s record spilled to its owner's pool slice.

        Counter-based draw keyed by ``(owner, key)``: the same key is
        resident in every run with this seed, regardless of request
        order, and raising ``pool_share`` only ever *adds* residents
        (nested fault-set property, same as the fault layer).
        """
        owner = self.topology.shard_of(key)
        fraction = self.topology.hosts[owner].pool_fraction
        if fraction <= 0.0:
            return False
        return decision_uniform(self.seed, "resident", owner, key) \
            < fraction

    def placement(self, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Owner and residency of every key in ``keys``, as arrays.

        Element for element ``(topology.shard_of(k), pool_resident(k))``
        — the same checks and draws — but each distinct key is placed
        once, and each host's residency draws run as one batch.  The
        arrays are read-only: a process places each key trace once per
        seed, partition and set of pool fractions
        (:func:`repro.sim.rng.recall`).
        """
        topo = self.topology
        keys = np.asarray(keys)
        memo_key = ("cluster-placement", self.seed, topo.keys_per_host,
                    tuple(host.pool_fraction for host in topo.hosts),
                    keys.dtype.str, keys.shape, keys.tobytes())
        placed = recall(memo_key)
        if placed is not None:
            return placed
        distinct, inverse = np.unique(keys, return_inverse=True)
        if len(distinct):
            topo.shard_of(int(distinct[0]))      # the bounds check, on
            topo.shard_of(int(distinct[-1]))     # both extremes
        owners = distinct // topo.keys_per_host
        resident = np.zeros(len(distinct), dtype=bool)
        # Range partitioning: each host owns one run of the sorted keys.
        edges = np.searchsorted(
            distinct, np.arange(topo.num_hosts + 1) * topo.keys_per_host)
        for host, lo, hi in zip(topo.hosts, edges, edges[1:]):
            fraction = host.pool_fraction
            if fraction > 0.0 and hi > lo:
                draws = decision_uniforms(
                    self.seed, "resident", host.index,
                    keys=distinct[lo:hi].tolist())
                resident[lo:hi] = np.array(draws) < fraction
        return remember(memo_key, (owners[inverse], resident[inverse]))

    # -- the run -----------------------------------------------------------

    def run(self, qps: float, *, theta: float = 0.99,
            requests: int = 8_000,
            write_fraction: float = 0.05) -> ClusterResult:
        """Serve one open-loop trace (docs/CLUSTER.md).

        Each *request* settles exactly once — into one of the outcome
        buckets of :class:`~repro.cluster.resilience.ResilienceStats` —
        but may spawn several *attempts* (retries after a deadline
        expiry, one hedged secondary).  No policy is the zero policy:
        every request is then one attempt that settles ``ok``.  The
        asymmetry that produces retry storms is deliberate: a client
        abandoning an attempt at its deadline cannot reach into the
        server's queue, so the abandoned attempt still consumes a full
        service slot when granted (wasted work); only a *successful*
        settle actively cancels still-queued sibling attempts
        (first-wins hedging), because success is the one outcome the
        client can signal.
        """
        policy = self.policy or ZERO_POLICY
        topo = self.topology
        traffic = OpenLoopZipfian(
            qps=qps, num_requests=requests, keyspace=topo.total_keys,
            theta=theta, write_fraction=write_fraction, seed=self.seed)
        engine = Engine(telemetry=self.telemetry)
        schedule, schedule_at = engine.schedule, engine.schedule_at
        cancel = engine.cancel
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        spans = self.telemetry.spans
        spanned = spans.enabled
        route = self.router.route

        servers = [Server(host.spec.workers, name=host.name)
                   for host in topo.hosts]
        host_sojourn = [LatencyRecorder(f"{host.name}-sojourn")
                        for host in topo.hosts]
        cluster_sojourn = LatencyRecorder("cluster-sojourn")
        injectors: dict[int, FaultInjector] = {}
        for index, plan in self.fault_plans.items():
            injector = injector_for(plan, stream=f"host{index}",
                                    telemetry=self.telemetry)
            if injector is not None:
                injectors[index] = injector

        dram_ns = topo.dram_read_ns()
        # Per-owner pool path: with one CXL device every entry is the
        # same number (the classic shared path); a heterogeneous pool
        # gives each shard the latency of the device holding its slice.
        pool_ns_by_host = [topo.pool_read_ns(host)
                           for host in range(topo.num_hosts)]
        hit_prob = topo.cache_hit_prob(theta)

        # Per-request placement and service inputs, computed for the
        # whole trace before the run and indexed by request, so no
        # simulation path can perturb another request's draws.  Each
        # element equals the scalar expression in the same operation
        # order: CPU work, then misses scaled by the write and LLC-hit
        # factors, then misses times the owner's read path.
        n = requests
        owner_of, resident_of = self.placement(traffic.keys)
        cpu_jitter = substream("cluster/cpu", self.seed).lognormal(
            0.0, CPU_JITTER_SIGMA, size=n)
        miss_jitter = substream("cluster/miss", self.seed).lognormal(
            0.0, MISS_JITTER_SIGMA, size=n)
        cache_u = substream("cluster/cache", self.seed).random(n)
        misses = EFFECTIVE_MISSES_MEAN * miss_jitter
        misses = np.where(traffic.writes, misses * WRITE_MISS_FACTOR,
                          misses)
        misses = np.where(cache_u < hit_prob,
                          misses * CACHE_HIT_MISS_FACTOR, misses)
        path_ns = np.where(resident_of,
                           np.array(pool_ns_by_host)[owner_of], dram_ns)
        cpu_of = CPU_BASE_NS * cpu_jitter
        mem_of = misses * path_ns
        cpu_ns = cpu_of.tolist()
        mem_ns_of = mem_of.tolist()
        owners = owner_of.tolist()
        residents = resident_of.tolist()

        link_up = [True] * topo.num_hosts
        link_injected = [0] * topo.num_hosts
        link_recovered = [0] * topo.num_hosts
        absorbed = [0] * topo.num_hosts
        served = [0] * topo.num_hosts
        rerouted = [0]
        completed = [0]
        service_total = [0.0]
        last_completion = [0.0]

        budget = RetryBudget(policy.retry_budget)
        note_admitted = budget.note_admitted
        breaker: CircuitBreaker | None = None
        if policy.breaking:
            # Reference latency: the unloaded mean service of the
            # slowest healthy read path — a host whose EWMA sojourn
            # sits at several multiples of this is sick, not busy.
            breaker = CircuitBreaker(
                policy, topo.num_hosts,
                reference_ns=CPU_BASE_NS
                + EFFECTIVE_MISSES_MEAN * max(pool_ns_by_host))
        hedge_wait = 0.0
        if policy.hedging and topo.num_hosts >= 2:
            hedge_wait = hedge_delay_ns(
                self.seed, policy.hedge_quantile,
                miss_ns=max(pool_ns_by_host))
        deadline = policy.deadline_ns
        retries = policy.retries
        shed_inflight = policy.shed_inflight
        counts = {"ok": 0, "ok_retried": 0, "ok_hedged": 0,
                  "deadline_exceeded": 0, "rejected": 0,
                  "hedges": 0, "hedge_wins": 0}
        wasted = [0.0]
        # Sojourns in record order; recorded in one batch after the run.
        cluster_sojourns: list[float] = []
        host_sojourns: list[list[float]] = [[] for _ in topo.hosts]
        # Span rows in record order: the request, its queue wait and
        # reroute flag.  The rare policy prefix and fault parts of a
        # served request, and a failed request's whole waterfall, are
        # kept by row; the rest of every waterfall follows from the
        # trace arrays and is built after the run.
        span_index: list[int] = []
        span_wait: list[float] = []
        span_reroute: list[bool] = []
        span_extras: dict[int, tuple] = {}
        span_failed: dict[int, list] = {}

        # One view per host for the whole run, refreshed in place; the
        # breaker and the exclude mask build their own lists.
        views = [HostView(i) for i in range(topo.num_hosts)]

        def routable(exclude: tuple) -> list[HostView]:
            for view, server, up in zip(views, servers, link_up):
                view.up = up
                view.in_flight = server.in_flight
            shown = views
            if breaker is not None:
                shown = breaker.filter_views(views, engine.now)
            if exclude:
                masked = [HostView(view.index,
                                   up=view.up
                                   and view.index not in exclude,
                                   in_flight=view.in_flight)
                          for view in shown]
                # Prefer an untried host, but a retry with nowhere new
                # to go re-queues at a tried one rather than failing.
                if any(view.up for view in masked):
                    return masked
            return shown

        def settle_failure(req: _Request, outcome: str,
                           segments: list) -> None:
            if req.settled:
                return           # a racing hedge won during the window
            req.settled = True
            counts[outcome] += 1
            completed[0] += 1
            last_completion[0] = engine.now
            if outcome == "deadline_exceeded":
                # The client *waited* this long for nothing: failures
                # belong in the sojourn tail.  Rejections don't — the
                # balancer turned them around in SHED_REJECT_NS.
                cluster_sojourns.append(engine.now - req.arrival)
            if spanned:
                span_failed[len(span_index)] = segments
                span_index.append(req.index)
                span_wait.append(0.0)
                span_reroute.append(False)

        def launch(req: _Request, number: int, prefix: tuple,
                   issue: float, hedge: bool, exclude: tuple) -> None:
            owner = req.owner
            if req.resident:
                target = route(req.key, owner, routable(exclude))
                # The owner's link is down; reaching the shared pool
                # slice from a survivor costs one redirect.
                reroute = not link_up[owner]
            else:
                target = owner       # local DRAM keys never move
                reroute = False
            server = servers[target]
            if shed_inflight and server.in_flight >= shed_inflight:
                if hedge:
                    return           # the primary attempt carries on
                schedule(SHED_REJECT_NS, settle_failure, req, "rejected",
                         [*prefix, (SHED_REJECT, SHED_REJECT_NS)]
                         if spanned else None)
                return
            primary = not (number or hedge)
            if primary:
                note_admitted()
            req.outstanding += 1
            req.tried += (target,)
            if hedge:
                counts["hedges"] += 1
            att = _Attempt(req, number, prefix, issue, hedge, target,
                           reroute)
            if deadline > 0.0:
                att.timer = schedule_at(issue + deadline, on_deadline,
                                        att)
            server.acquire(start, att)
            if primary and hedge_wait > 0.0 and req.resident:
                schedule(hedge_wait, maybe_hedge, att)

        def on_deadline(att: _Attempt) -> None:
            # The fired timer's args hold ``att``; dropping it breaks
            # the attempt <-> timer cycle so the attempt is freed by
            # reference counting, not left for the cycle collector.
            att.timer = None
            req = att.req
            if req.settled or att.done:
                return
            att.abandoned = True
            req.outstanding -= 1
            if not att.hedge and req.chain < retries \
                    and budget.allow():
                req.chain += 1
                chain = req.chain
                # Exponential backoff with full deterministic jitter
                # in [0.5, 1.5) of the doubled base.
                backoff = policy.backoff_base_ns * (2.0 ** (chain - 1)) \
                    * (0.5 + decision_uniform(
                        self.seed, "resil-backoff", req.index, chain))
                req.pending_retry = True
                schedule(backoff, relaunch, req, chain,
                         att.prefix + ((DEADLINE_WAIT, deadline),
                                       (RETRY_BACKOFF, backoff))
                         if spanned else ())
                return
            if req.outstanding == 0 and not req.pending_retry:
                settle_failure(req, "deadline_exceeded",
                               [*att.prefix, (DEADLINE_WAIT, deadline)]
                               if spanned else None)

        def relaunch(req: _Request, chain: int, prefix: tuple) -> None:
            req.pending_retry = False
            if not req.settled:
                launch(req, chain, prefix, engine.now, False, req.tried)

        def maybe_hedge(att: _Attempt) -> None:
            req = att.req
            if req.settled or att.done:
                return
            exclude = (att.target,)
            if not any(view.up and view.index != att.target
                       for view in routable(exclude)):
                return               # nowhere distinct to hedge to
            launch(req, 0, att.prefix + ((HEDGE_WAIT, hedge_wait),)
                   if spanned else (), engine.now, True, exclude)

        def start(att: _Attempt) -> None:
            req = att.req
            target = att.target
            if req.won:
                # First-wins cancel: the client already has its answer,
                # so this still-queued attempt vacates the slot with
                # zero service.  The release is scheduled rather than
                # called so a long chain of cancelled waiters cannot
                # recurse through the grant path.
                att.done = True
                if att.timer is not None:
                    cancel(att.timer)
                if not att.abandoned:
                    req.outstanding -= 1
                schedule(0.0, servers[target].release)
                return
            index = req.index
            mem_ns = mem_ns_of[index]
            extra = REROUTE_HOP_NS if att.reroute else 0.0
            injector = injectors.get(target) if req.resident else None
            if injector is not None:
                # Every attempt draws its own faults: a retry hits
                # fresh device weather, not a replay of the first
                # attempt's.  The primary keeps the bare request key so
                # fault accounting stays comparable across policies.
                if att.hedge:
                    fault_key = (index, "h", att.number)
                elif att.number:
                    fault_key = (index, "a", att.number)
                else:
                    fault_key = (index,)
                att.fault_parts, att.recoveries = \
                    injector.request_extras(*fault_key, reread_ns=mem_ns)
                for _, part_ns in att.fault_parts:
                    extra += part_ns
            service = cpu_ns[index] + mem_ns + extra
            service_total[0] += service
            att.grant = engine.now
            att.service = service
            schedule(service, finish, att)

        def finish(att: _Attempt) -> None:
            req = att.req
            target = att.target
            servers[target].release()
            att.done = True
            if att.timer is not None:
                cancel(att.timer)
            if att.recoveries:
                injector = injectors[target]
                for _ in range(att.recoveries):
                    injector.recovery()
            if att.reroute:
                # All reroute accounting lands at termination so
                # abandoned attempts still balance injected == recovered.
                link_injected[req.owner] += 1
                link_recovered[req.owner] += 1
                rerouted[0] += 1
                absorbed[target] += 1
            now = engine.now
            if breaker is not None:
                breaker.observe(target, now - att.issue, now)
            if req.settled or att.abandoned:
                # A losing attempt: the server did the work, nobody
                # was listening.
                wasted[0] += att.service
                if not att.abandoned:
                    req.outstanding -= 1
                return
            req.settled = req.won = True
            req.outstanding -= 1
            sojourn = now - req.arrival
            cluster_sojourns.append(sojourn)
            host_sojourns[target].append(sojourn)
            served[target] += 1
            completed[0] += 1
            last_completion[0] = now
            if att.hedge:
                counts["ok_hedged"] += 1
                counts["hedge_wins"] += 1
            elif att.number:
                counts["ok_retried"] += 1
            else:
                counts["ok"] += 1
            if traced:
                tracer.complete(f"{CLUSTER_TRACK}.host{target}",
                                "put" if req.is_write else "get",
                                req.arrival, sojourn, request=req.index)
            if spanned:
                if att.prefix or att.fault_parts:
                    span_extras[len(span_index)] = (att.prefix,
                                                    att.fault_parts)
                span_index.append(req.index)
                span_wait.append(att.grant - att.issue)
                span_reroute.append(att.reroute)

        def submit(index: int, arrival: float, key: int,
                   is_write: bool) -> None:
            req = _Request(index, arrival, key, is_write, owners[index],
                           residents[index])
            launch(req, 0, (), arrival, False, ())

        if self.link_down is not None:
            down = self.link_down

            def kill_link() -> None:
                link_up[down.host] = False

            schedule_at(down.at_fraction * traffic.duration_ns, kill_link)

        for index, (arrival, key, is_write) in enumerate(zip(
                traffic.arrival_ns.tolist(), traffic.keys.tolist(),
                traffic.writes.tolist())):
            schedule_at(arrival, submit, index, arrival, key, is_write)
        engine.run()
        # launch closes over relaunch (through on_deadline) and
        # maybe_hedge, which close over launch.  Emptying their cells
        # breaks that cycle, so the run's trace arrays and span rows
        # are freed when run() returns, not at the next full collection.
        del relaunch, maybe_hedge
        cluster_sojourn.extend(cluster_sojourns)
        if spanned:
            rows = np.array(span_index, dtype=np.int64)
            head, tail = _sparse_columns(
                len(rows), span_failed, span_extras)
            spans.record_batch(
                rows, traffic.arrival_ns[rows],
                np.where(traffic.writes[rows], "put", "get").tolist(),
                head + _fixed_columns(
                    topo, rows, span_wait, span_reroute, list(span_failed),
                    cpu_of, mem_of, misses, owner_of, resident_of) + tail)
        for recorder, sojourns in zip(host_sojourn, host_sojourns):
            recorder.extend(sojourns)

        if completed[0] != requests:
            raise ClusterError(
                f"only {completed[0]}/{requests} requests settled")

        hosts = []
        for index, host in enumerate(topo.hosts):
            injector = injectors.get(index)
            inj = (injector.injected if injector else 0) \
                + link_injected[index]
            rec = (injector.recovered if injector else 0) \
                + link_recovered[index]
            recorder = host_sojourn[index]
            hosts.append(HostResult(
                name=host.name, index=index, requests=served[index],
                p50_ns=recorder.p50() if len(recorder) else 0.0,
                p99_ns=recorder.p99() if len(recorder) else 0.0,
                injected=inj, recovered=rec, absorbed=absorbed[index],
                pool_fraction=host.pool_fraction))

        registry = self.telemetry.registry
        registry.counter("cluster.requests").inc(completed[0])
        p50 = cluster_sojourn.p50() if len(cluster_sojourn) else 0.0
        p99 = cluster_sojourn.p99() if len(cluster_sojourn) else 0.0
        registry.gauge("cluster.p99_sojourn_ns").set(p99)
        achieved = completed[0] / (last_completion[0] / 1e9)
        registry.gauge("cluster.achieved_qps").set(achieved)
        for result in hosts:
            registry.gauge(
                f"cluster.host{result.index}.p99_ns").set(result.p99_ns)

        stats = None
        if self.policy is not None:
            stats = ResilienceStats(
                ok=counts["ok"], ok_retried=counts["ok_retried"],
                ok_hedged=counts["ok_hedged"],
                deadline_exceeded=counts["deadline_exceeded"],
                rejected=counts["rejected"],
                retries_issued=budget.issued,
                retries_suppressed=budget.suppressed,
                hedges_launched=counts["hedges"],
                hedge_wins=counts["hedge_wins"],
                breaker_opens=breaker.opens if breaker is not None
                else 0,
                wasted_ns=wasted[0])
            registry.gauge("cluster.goodput_qps").set(
                achieved * (stats.successes / completed[0]))

        return ClusterResult(
            qps=qps, theta=theta, pool_share=topo.pool_share,
            requests=completed[0], achieved_qps=achieved,
            p50_ns=p50, p99_ns=p99,
            mean_service_ns=service_total[0] / completed[0],
            pool_utilization=topo.pool_utilization(),
            rerouted=rerouted[0],
            link_down_host=self.link_down.host
            if self.link_down is not None else None,
            hosts=tuple(hosts), resilience=stats)
