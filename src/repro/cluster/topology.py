"""The :class:`ClusterTopology`: N hosts sharing one CXL memory pool.

Each host is a KV shard in the style of :mod:`repro.apps.kvstore` — a
single-threaded (or ``workers``-threaded) store whose per-query service
time decomposes into CPU work plus dependent memory misses.  The miss
latencies come from the *same* device stack every single-host
experiment uses: a :class:`~repro.cpu.system.System` built from the
combined testbed supplies the unloaded DRAM and CXL read paths, and the
pool adds one switch hop on top of the device's own CXL path (a pooled
expander sits behind a fabric port, the topology CXL-DMSim and
CXLRAMSim model).

The split between local DRAM and the pool is decided by
:func:`~repro.cluster.pool.plan_spill`: each shard's working set fills
its local DRAM budget first and spills the remainder into a
:class:`~repro.cluster.pool.PoolAllocator` HDM slice.  A ``pool_share``
of 0.5 therefore means half of every shard's bytes — and, because keys
are hashed across lines, roughly half of every query's misses — pay the
pool path.
"""

from __future__ import annotations

from dataclasses import dataclass

from .. import build_system, combined_testbed
from ..config import SystemConfig
from ..errors import ClusterError
from ..units import is_count
from ..workloads.distributions import ZipfianKeys
from .pool import PoolAllocator, PoolSlice, SpillPlan, plan_spill

RECORD_BYTES = 1280
"""One KV record, cacheline-rounded: 1 KiB value + object overhead."""

POOL_HOP_NS = 70.0
"""Extra one-way latency of the pool fabric port (switch traversal)."""

LLC_USABLE_FRACTION = 0.5
"""Share of a host's LLC realistically holding hot records (matches
:mod:`repro.apps.kvstore.store`)."""


@dataclass(frozen=True)
class HostSpec:
    """Static description of one host in the cluster."""

    name: str
    keys: int                          # shard keyspace size
    local_dram_bytes: int              # DRAM budget for the shard heap
    workers: int = 1                   # event-loop threads

    def __post_init__(self) -> None:
        if self.keys <= 0:
            raise ClusterError(f"{self.name}: keys must be positive")
        if self.local_dram_bytes < 0:
            raise ClusterError(f"{self.name}: DRAM budget must be >= 0")
        if self.workers <= 0:
            raise ClusterError(f"{self.name}: workers must be positive")

    @property
    def demand_bytes(self) -> int:
        return self.keys * RECORD_BYTES


@dataclass(frozen=True)
class Host:
    """One placed host: its spec, spill plan, and pool slice."""

    index: int
    spec: HostSpec
    spill: SpillPlan
    slice: PoolSlice | None            # None when nothing spilled

    @property
    def name(self) -> str:
        return self.spec.name

    @property
    def pool_fraction(self) -> float:
        """Fraction of this shard's data served from the pool."""
        return self.spill.pool_fraction


class ClusterTopology:
    """N KV shards carved into one shared CXL memory pool.

    ``pool_share`` is the fraction of each shard's working set forced
    into the pool (its local DRAM budget covers the rest), the knob the
    ``cluster-pooling`` experiment sweeps.  The shared
    :class:`~repro.cpu.system.System` supplies the perfmodel read
    paths; per-host placement differs only in how much of each shard
    pays the pool path.
    """

    def __init__(self, num_hosts: int, *, keys_per_host: int = 200_000,
                 pool_share: float = 0.5,
                 pool_bytes: int | None = None,
                 workers: int = 1,
                 testbed: SystemConfig | None = None) -> None:
        if not is_count(num_hosts):
            raise ClusterError(f"need at least one host: {num_hosts!r}")
        if not is_count(keys_per_host):
            raise ClusterError(f"keys_per_host must be a positive "
                               f"integer: {keys_per_host!r}")
        if not 0.0 <= pool_share <= 1.0:
            raise ClusterError(
                f"pool_share must be in [0, 1]: {pool_share}")
        self.num_hosts = num_hosts
        self.keys_per_host = keys_per_host
        self.pool_share = pool_share
        self.system = build_system(testbed if testbed is not None
                                   else combined_testbed())
        demand = keys_per_host * RECORD_BYTES
        # Default pool capacity: exactly the fleet's total working set,
        # so utilization reads directly as the realized spill share.
        self.pool = PoolAllocator(pool_bytes if pool_bytes is not None
                                  else demand * num_hosts)
        local_budget = int(round(demand * (1.0 - pool_share)))
        self.hosts: list[Host] = []
        for index in range(num_hosts):
            spec = HostSpec(name=f"host{index}", keys=keys_per_host,
                            local_dram_bytes=local_budget,
                            workers=workers)
            spill = plan_spill(spec.demand_bytes, spec.local_dram_bytes)
            piece = self.pool.carve(spec.name, spill.pool_bytes) \
                if spill.pool_bytes > 0 else None
            self.hosts.append(Host(index=index, spec=spec, spill=spill,
                                   slice=piece))

    # -- perfmodel-derived latencies --------------------------------------

    def dram_read_ns(self) -> float:
        """Unloaded local-DRAM miss path of one host."""
        system = self.system
        return system.edge_ns() + system.backend_for_node(
            system.LOCAL_NODE).idle_read_ns()

    def pool_read_ns(self, host: int | None = None) -> float:
        """Unloaded pool miss path: the CXL device plus one fabric hop.

        With a multi-device pool (``pooled``/``hetero-pool`` scenario
        profiles) each host's slice lives on device ``host mod
        num_devices``, so a heterogeneous pool gives different shards
        different pool latencies.  Single-device systems reduce to the
        classic shared path regardless of ``host``.
        """
        system = self.system
        device = 0 if host is None \
            else host % len(system.config.cxl_devices)
        return (system.edge_ns()
                + system.backend_for_node(system.cxl_node_id + device)
                .idle_read_ns() + POOL_HOP_NS)

    # -- span components ---------------------------------------------------

    def dram_components(self) -> tuple[tuple[str, float], ...]:
        """The local-DRAM miss path as labeled per-miss span components.

        Sums to :meth:`dram_read_ns` (up to float association; span
        recording closes the sum with a residual on the last entry).
        """
        system = self.system
        backend = system.backend_for_node(system.LOCAL_NODE)
        return (("cpu.stall", system.edge_ns()),) + tuple(
            (f"dram.{part}", ns) for part, ns in backend.read_components_ns())

    def pool_components(self, host: int | None = None
                        ) -> tuple[tuple[str, float], ...]:
        """The pool miss path as labeled per-miss span components.

        Mirrors :meth:`pool_read_ns`: socket edge, then the owning CXL
        device's link/ctrl/media decomposition, then the fabric hop.
        """
        system = self.system
        device = 0 if host is None \
            else host % len(system.config.cxl_devices)
        backend = system.backend_for_node(system.cxl_node_id + device)
        return ((("cpu.stall", system.edge_ns()),)
                + tuple((f"cxl.{part}", ns)
                        for part, ns in backend.read_components_ns())
                + (("pool.hop", POOL_HOP_NS),))

    # -- workload-derived absorption --------------------------------------

    def cache_hit_prob(self, theta: float) -> float:
        """LLC hot-mass absorption for a scrambled-Zipfian keyspace.

        Scrambled Zipfian spreads hot keys uniformly over the hash
        space, so every shard sees the same hot mass — cluster-wide and
        per-host absorption coincide.
        """
        llc = self.system.socket.config.cache.llc.capacity_bytes
        hot_records = int(llc * LLC_USABLE_FRACTION / RECORD_BYTES)
        chooser = ZipfianKeys(self.total_keys, theta)
        return chooser.hot_mass(hot_records)

    # -- accounting --------------------------------------------------------

    @property
    def total_keys(self) -> int:
        return self.num_hosts * self.keys_per_host

    def pool_utilization(self) -> float:
        return self.pool.utilization()

    def shard_of(self, key: int) -> int:
        """Home shard of a global key (contiguous range partitioning)."""
        if not 0 <= key < self.total_keys:
            raise ClusterError(f"key {key} outside keyspace")
        return key // self.keys_per_host
