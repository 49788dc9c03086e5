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
from ...units import CACHELINE, is_count
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
        """``(miss_ns, dram_ns, cxl_ns)`` of one record.

        ``miss_ns`` is the line-weighted per-miss latency, summed in
        ascending node-id order; the other two split the same products
        by node kind.  The per-key reference for
        :meth:`miss_latencies_ns`.
        """
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
        return miss_ns, dram, cxl

    def average_miss_latency_ns(self, key: int) -> float:
        """Expected per-miss latency given the record's node mix."""
        return self._miss_parts(key)[0]

    def miss_latencies_ns(self, keys: np.ndarray) -> np.ndarray:
        """:meth:`average_miss_latency_ns` of each key, as float64.

        The batch form the request sampler uses: each record's lines
        are counted per node over the pages it spans, then
        ``0.0 + share * read_ns`` is summed in ascending node-id order —
        the scalar path's floats, since a node the record does not
        touch adds an exact ``0.0``.  Costs O(len(keys)), never
        O(keyspace).
        """
        keys = np.asarray(keys, dtype=np.int64)
        if keys.size and (keys.min() < 0 or keys.max() >= self.num_keys):
            bad = keys[(keys < 0) | (keys >= self.num_keys)][0]
            raise WorkloadError(f"key {bad} outside keyspace")
        page = self.allocation.page_bytes
        page_nodes = self.allocation.page_nodes
        record = self.record_bytes
        start = keys * record
        end = start + record
        first = start // page
        last_page = len(page_nodes) - 1
        node_ids = sorted(self._node_read_ns)
        lines = np.zeros((keys.size, node_ids[-1] + 1), dtype=np.int64)
        rows = np.arange(keys.size)
        # A record spans at most ceil(record / page) + 1 pages.
        for span in range(-(-record // page) + 1):
            index = first + span
            begin = np.maximum(start, index * page)
            stop = np.minimum((index + 1) * page, end)
            nodes = page_nodes[np.minimum(index, last_page)]
            lines[rows, nodes] += np.maximum(stop - begin, 0) // CACHELINE
        total = record // CACHELINE
        miss_ns = np.zeros(keys.size)
        for node in node_ids:
            miss_ns += lines[:, node] / total * self._node_read_ns[node]
        return miss_ns

    def sample_requests(self, n: int, key_rng: np.random.Generator, *,
                        grow: bool = True
                        ) -> tuple[list[Operation], np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
        """``n`` queries' ``(ops, keys, cpu_ns, misses, miss_ns)``.

        Per query, in order: the operation and key on ``key_rng`` (with
        ``grow``, an INSERT appends a record instead of drawing a key),
        then the CPU jitter, the miss jitter and the cache draw on the
        store's own stream.  The loop only draws; the products, the
        mutation and cache-hit factors and the per-key miss latency are
        numpy passes over the trace, the same IEEE operations a
        per-query sampler performs.  A query's service time is
        ``cpu_ns + misses * miss_ns``.
        """
        next_operation = self.workload.next_operation
        next_key = self.chooser.next_key
        insert_record = self.insert_record
        lognormal = self._rng.lognormal
        uniform = self._rng.random
        insert = Operation.INSERT if grow else None
        ops: list[Operation] = []
        keys: list[int] = []
        cpu_draws: list[float] = []
        miss_draws: list[float] = []
        coin_draws: list[float] = []
        add_op, add_key = ops.append, keys.append
        add_cpu, add_miss, add_coin = (cpu_draws.append, miss_draws.append,
                                       coin_draws.append)
        for _ in range(n):
            op = next_operation(key_rng)
            add_op(op)
            add_key(insert_record() if op is insert else next_key(key_rng))
            add_cpu(lognormal(0.0, CPU_JITTER_SIGMA))
            add_miss(lognormal(0.0, MISS_JITTER_SIGMA))
            add_coin(uniform())
        cpu = CPU_BASE_NS * np.array(cpu_draws)
        misses = EFFECTIVE_MISSES_MEAN * np.array(miss_draws)
        coins = np.array(coin_draws)
        keys_array = np.array(keys, dtype=np.int64)
        # Free the per-request Python floats and ints before the numpy
        # passes allocate, so their peaks do not add up.
        del cpu_draws, miss_draws, coin_draws, keys
        # Mutations rewrite the value: extra dirty-line traffic.
        kinds = np.array(ops, dtype=object)
        mutates = ((kinds == Operation.UPDATE)
                   | (kinds == Operation.READ_MODIFY_WRITE)
                   | (kinds == Operation.INSERT))
        misses = np.where(mutates, misses * 1.15, misses)
        # Hot record: index + value mostly cached.
        misses = np.where(coins < self._cache_hit_prob, misses * 0.1,
                          misses)
        return (ops, keys_array, cpu, misses,
                self.miss_latencies_ns(keys_array))

    def miss_node_split(self, key: int) -> tuple[float, float]:
        """``(dram_share_ns, cxl_share_ns)`` of the per-miss latency.

        Splits :meth:`average_miss_latency_ns` by the kind of node
        backing each of the record's lines — the span layer's
        DRAM-vs-CXL attribution.  Only called on spanned runs; no RNG.
        """
        _, dram, cxl = self._miss_parts(key)
        return dram, cxl

    def mean_service_ns(self, samples: int = 2000) -> float:
        """Monte-Carlo mean service time under the workload.

        One :meth:`sample_requests` batch with ``key_rng`` set to the
        store's own stream, so operation, key and service draws
        interleave on one generator; INSERTs draw an existing key, and
        the store is left as it was.  The service times are summed in
        draw order.
        """
        if not is_count(samples):
            raise WorkloadError(
                f"samples must be a positive integer: {samples!r}")
        _, _, cpu, misses, miss_ns = self.sample_requests(
            samples, self._rng, grow=False)
        total = 0.0
        for service in (cpu + misses * miss_ns).tolist():
            total += service
        return total / samples


def _round_lines(nbytes: int) -> int:
    return -(-nbytes // CACHELINE) * CACHELINE
