"""The Redis-like store: records on policy-placed pages.

Service-time model
------------------
One query's latency decomposes into

* a CPU part — request parsing, hashing, reply serialization — with
  log-normal jitter (Redis' own processing is µs-scale, §5.1);
* a memory part — the *effective dependent misses* of walking the hash
  bucket and touching the record's value lines.  Each miss pays the
  unloaded read path of whichever NUMA node backs the touched page, so
  interleave ratios shift the mix of ~106 ns (DRAM) and ~390 ns (CXL)
  misses;
* cache absorption — requests to keys hot enough to live in the LLC
  skip most of the memory part.  Hot mass comes from the workload's key
  distribution, which is how Fig 7's lat/zipf/uni variants differ.

This is the mechanism behind both paper observations: µs-level queries
are highly sensitive to memory latency (the p99 gap of Fig 6), and the
max QPS ordering across interleave ratios (Fig 7).
"""

from __future__ import annotations

import numpy as np

from ...cpu.system import System
from ...errors import WorkloadError
from ...topology.interleave import PlacementPolicy
from ...topology.pages import Allocation
from ...units import CACHELINE
from ...workloads.ycsb import Operation, YcsbWorkload

CPU_BASE_NS = 10_400.0
"""Per-query CPU work (parse + hash + reply), Redis-like."""

CPU_JITTER_SIGMA = 0.12
"""Log-normal sigma of the CPU part."""

EFFECTIVE_MISSES_MEAN = 20.0
"""Mean dependent memory misses per query (bucket walk + 1 KB value)."""

MISS_JITTER_SIGMA = 0.5
"""Log-normal sigma of the miss count — the tail that p99 sees."""

RECORD_OVERHEAD_BYTES = 200
"""Redis object headers, SDS strings, dict entry per record."""

LLC_USABLE_FRACTION = 0.5
"""Share of the LLC realistically holding hot records."""


class KvStore:
    """Keyspace layout + per-operation service-time sampling."""

    def __init__(self, system: System, policy: PlacementPolicy, *,
                 workload: YcsbWorkload, num_keys: int = 1_000_000,
                 capacity_keys: int | None = None,
                 rng: np.random.Generator | None = None) -> None:
        if num_keys <= 0:
            raise WorkloadError(f"num_keys must be positive: {num_keys}")
        self.system = system
        self.workload = workload
        self.num_keys = num_keys
        # Inserts (workload D is 5% inserts) grow the keyspace into
        # pre-allocated headroom, like a store started with maxmemory.
        self.capacity_keys = capacity_keys if capacity_keys is not None \
            else int(num_keys * 1.1)
        if self.capacity_keys < num_keys:
            raise WorkloadError("capacity below the initial keyspace")
        self.record_bytes = _round_lines(
            workload.value_bytes + RECORD_OVERHEAD_BYTES)
        self.allocation: Allocation = system.allocator.allocate(
            self.capacity_keys * self.record_bytes, policy)
        self.chooser = workload.make_chooser(num_keys)
        self._rng = rng if rng is not None else np.random.default_rng(0)
        # Unloaded read path per node, precomputed once.
        self._node_read_ns = {
            node.node_id: system.edge_ns()
            + system.backend_for_node(node.node_id).idle_read_ns()
            for node in system.topology.nodes}
        self._cache_hit_prob = self._estimate_cache_hit_prob()
        # Per-key (miss_ns, dram_ns, cxl_ns), filled as keys are touched.
        self._miss_memo: dict[int, tuple[float, float, float]] = {}

    def free(self) -> None:
        """Return the store's pages to the allocator (sweep hygiene)."""
        self.system.allocator.free(self.allocation)

    def insert_record(self) -> int:
        """Append a new record (a YCSB INSERT); returns its key.

        Raises once the pre-allocated capacity is exhausted — the
        simulated analogue of hitting maxmemory.
        """
        if self.num_keys >= self.capacity_keys:
            raise WorkloadError(
                f"keyspace capacity {self.capacity_keys} exhausted")
        key = self.num_keys
        self.num_keys += 1
        self.chooser.grow(self.num_keys)
        return key

    # -- layout ------------------------------------------------------------

    def record_offset(self, key: int) -> int:
        if not 0 <= key < self.num_keys:
            raise WorkloadError(f"key {key} outside keyspace")
        return key * self.record_bytes

    def record_node_mix(self, key: int) -> dict[int, float]:
        """Fraction of the record's lines on each node, by node id.

        Walks the (usually one or two) pages the record spans in
        ``page_nodes``; records and pages are both cacheline-aligned,
        so no line straddles a page.
        """
        start = self.record_offset(key)
        end = start + self.record_bytes
        page = self.allocation.page_bytes
        page_nodes = self.allocation.page_nodes
        lines: dict[int, int] = {}
        while start < end:
            index = start // page
            stop = min((index + 1) * page, end)
            node = int(page_nodes[index])
            lines[node] = lines.get(node, 0) + (stop - start) // CACHELINE
            start = stop
        total = self.record_bytes // CACHELINE
        return {node: lines[node] / total for node in sorted(lines)}

    def cxl_resident_fraction(self) -> float:
        """Fraction of the whole store on CXL nodes (verifies policies)."""
        fractions = self.allocation.node_fractions()
        return sum(share for node, share in fractions.items()
                   if self.system.topology.node(node).kind.is_cxl)

    # -- caching -------------------------------------------------------------

    def _estimate_cache_hit_prob(self) -> float:
        llc = self.system.socket.config.cache.llc.capacity_bytes
        hot_records = int(llc * LLC_USABLE_FRACTION / self.record_bytes)
        return self.chooser.hot_mass(hot_records)

    @property
    def cache_hit_prob(self) -> float:
        return self._cache_hit_prob

    # -- service times ---------------------------------------------------------

    def _miss_parts(self, key: int) -> tuple[float, float, float]:
        """Memoized ``(miss_ns, dram_ns, cxl_ns)`` of one record.

        ``miss_ns`` is the line-weighted per-miss latency, summed in
        ascending node-id order; the other two split the same products
        by node kind.  Computed on first touch, so a store's setup cost
        follows the keys a run draws, not its keyspace.
        """
        parts = self._miss_memo.get(key)
        if parts is not None:
            return parts
        topology = self.system.topology
        miss_ns = 0.0
        dram = 0.0
        cxl = 0.0
        for node, share in self.record_node_mix(key).items():
            part = share * self._node_read_ns[node]
            miss_ns += part
            if topology.node(node).kind.is_cxl:
                cxl += part
            else:
                dram += part
        parts = self._miss_memo[key] = (miss_ns, dram, cxl)
        return parts

    def average_miss_latency_ns(self, key: int) -> float:
        """Expected per-miss latency given the record's node mix."""
        return self._miss_parts(key)[0]

    def sample_service_parts(self, op: Operation, key: int
                             ) -> tuple[float, float, float]:
        """One query's sampled ``(cpu_ns, misses, per_miss_ns)``.

        The span layer records the parts separately;
        :meth:`sample_service_ns` folds them into the scalar service
        time.  Draw order is fixed (CPU jitter, miss jitter, cache
        draw) so sampling parts or the scalar consumes the RNG stream
        identically.
        """
        rng = self._rng
        cpu = CPU_BASE_NS * rng.lognormal(0.0, CPU_JITTER_SIGMA)
        misses = EFFECTIVE_MISSES_MEAN * rng.lognormal(0.0, MISS_JITTER_SIGMA)
        if op in (Operation.UPDATE, Operation.READ_MODIFY_WRITE,
                  Operation.INSERT):
            # Mutations rewrite the value: extra dirty-line traffic.
            misses *= 1.15
        if rng.random() < self._cache_hit_prob:
            misses *= 0.1        # hot record: index + value mostly cached
        return cpu, misses, self.average_miss_latency_ns(key)

    def sample_service_ns(self, op: Operation, key: int) -> float:
        """One query's service time (CPU + memory), sampled."""
        cpu, misses, miss_ns = self.sample_service_parts(op, key)
        return cpu + misses * miss_ns

    def miss_node_split(self, key: int) -> tuple[float, float]:
        """``(dram_share_ns, cxl_share_ns)`` of the per-miss latency.

        Splits :meth:`average_miss_latency_ns` by the kind of node
        backing each of the record's lines — the span layer's
        DRAM-vs-CXL attribution.  Only called on spanned runs; no RNG.
        """
        _, dram, cxl = self._miss_parts(key)
        return dram, cxl

    def mean_service_ns(self, samples: int = 2000) -> float:
        """Monte-Carlo mean service time under the workload."""
        if samples <= 0:
            raise WorkloadError("samples must be positive")
        total = 0.0
        for _ in range(samples):
            op = self.workload.next_operation(self._rng)
            key = self.chooser.next_key(self._rng)
            total += self.sample_service_ns(op, key)
        return total / samples


def _round_lines(nbytes: int) -> int:
    return -(-nbytes // CACHELINE) * CACHELINE
