"""Allocations: page-granular mappings from a buffer to NUMA nodes.

An :class:`Allocation` is what the allocator hands back — the simulated
analogue of the pointer returned by ``numa_alloc_onnode`` plus the page
table entries behind it.  Benchmarks and applications query
:meth:`Allocation.node_of` to find where a byte offset lives, and
:meth:`Allocation.node_histogram` to verify interleave ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import AllocationError


@dataclass(frozen=True)
class Allocation:
    """A contiguous virtual buffer whose pages are spread over nodes.

    ``page_nodes[i]`` is the NUMA node id backing page ``i``.  Stored as a
    compact numpy array: a 16 GiB allocation is 4 Mi pages, i.e. 8 MB of
    int16 — cheap enough to materialize exactly rather than model
    statistically, which keeps node lookups honest.
    """

    size_bytes: int
    page_bytes: int
    page_nodes: np.ndarray

    def __post_init__(self) -> None:
        if self.size_bytes <= 0:
            raise AllocationError("allocation size must be positive")
        if self.page_bytes <= 0 or self.page_bytes % 512:
            raise AllocationError(f"bad page size: {self.page_bytes}")
        expected = -(-self.size_bytes // self.page_bytes)   # ceil division
        if len(self.page_nodes) != expected:
            raise AllocationError(
                f"page map has {len(self.page_nodes)} entries, "
                f"expected {expected}")

    @property
    def num_pages(self) -> int:
        return len(self.page_nodes)

    def node_of(self, offset: int) -> int:
        """NUMA node id backing byte ``offset`` of the buffer."""
        if not 0 <= offset < self.size_bytes:
            raise AllocationError(
                f"offset {offset} outside allocation of {self.size_bytes} B")
        return int(self.page_nodes[offset // self.page_bytes])

    def nodes_of(self, offsets: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`node_of` for benchmark inner loops."""
        pages = offsets // self.page_bytes
        if pages.size and (pages.min() < 0 or pages.max() >= self.num_pages):
            raise AllocationError("offset array outside allocation")
        return self.page_nodes[pages]

    def node_histogram(self) -> dict[int, int]:
        """Pages per node — used to verify interleave ratios in tests."""
        ids, counts = np.unique(self.page_nodes, return_counts=True)
        return {int(node): int(count) for node, count in zip(ids, counts)}

    def node_fractions(self) -> dict[int, float]:
        """Fraction of pages per node."""
        histogram = self.node_histogram()
        total = self.num_pages
        return {node: count / total for node, count in histogram.items()}

    def bytes_on_node(self, node_id: int) -> int:
        """Bytes resident on ``node_id`` (last page counted in full)."""
        pages = int(np.count_nonzero(self.page_nodes == node_id))
        return pages * self.page_bytes
