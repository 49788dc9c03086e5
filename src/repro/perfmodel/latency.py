"""The end-to-end latency model behind Fig. 2.

A memory access is a path::

    core issue -> L1 -> L2 -> LLC -> mesh -> home agent -> [beyond the edge]

where "beyond the edge" is one of the three backends (local iMC+DDR5,
UPI+remote iMC+DDR5, or CXL port + device controller + DDR4).  The model
composes those pieces into the probes MEMO times:

* ``flushed_load_ns`` — clflush + mfence, then one AVX-512 load;
* ``flushed_store_writeback_ns`` — temporal store + clwb ("st+wb");
* ``nt_store_ns`` — non-temporal store + sfence;
* ``pointer_chase_ns`` — the average of a dependent chase over a working
  set, optionally per-WSS (the Fig. 2 staircase).
"""

from __future__ import annotations

from ..cache.hierarchy import expected_latency_ns
from ..cpu.isa import FENCE_NS, AccessKind
from ..cpu.system import MemoryScheme, System
from ..errors import ConfigError
from ..mem.device import MemoryBackend


class LatencyModel:
    """Unloaded access-latency queries for every scheme of a system."""

    def __init__(self, system: System) -> None:
        self.system = system

    # -- path pieces -------------------------------------------------------

    def _backend(self, scheme: MemoryScheme) -> MemoryBackend:
        return self.system.scheme_backend(scheme)

    def read_path_ns(self, scheme: MemoryScheme) -> float:
        """Socket edge + device read: one demand miss, no cache effects."""
        return self.system.edge_ns() + self._backend(scheme).idle_read_ns()

    def write_path_ns(self, scheme: MemoryScheme) -> float:
        """Socket edge + device write acknowledged."""
        return self.system.edge_ns() + self._backend(scheme).idle_write_ns()

    # -- MEMO's Fig-2 probes -----------------------------------------------

    def flushed_load_ns(self, scheme: MemoryScheme) -> float:
        """Latency of loading a just-flushed line (MEMO 'ld', §4.2).

        Includes the coherence-directory penalty for flushed lines the
        paper cites from the Optane study [31].
        """
        core = self.system.socket.config.core
        return (core.issue_overhead_ns
                + self.system.flushed_line_penalty_ns()
                + self.read_path_ns(scheme)
                + FENCE_NS)

    def flushed_store_writeback_ns(self, scheme: MemoryScheme) -> float:
        """Temporal store to a flushed line, then clwb ('st+wb').

        The store miss triggers an RFO (a full read round trip); the
        clwb then pushes the dirty line back out (a write round trip).
        This RFO accounting is why st+wb is the slowest probe on CXL.
        """
        core = self.system.socket.config.core
        return (core.issue_overhead_ns
                + self.system.flushed_line_penalty_ns()
                + self.read_path_ns(scheme)        # RFO fill
                + self.write_path_ns(scheme)       # clwb writeback
                + FENCE_NS)

    def nt_store_ns(self, scheme: MemoryScheme) -> float:
        """Non-temporal store + sfence ('nt-st').

        No RFO, no flushed-line handshake — the line is never cached.
        The sfence waits for global visibility, i.e. one write path.
        """
        core = self.system.socket.config.core
        return (core.issue_overhead_ns
                + self.write_path_ns(scheme)
                + FENCE_NS)

    def probe_ns(self, scheme: MemoryScheme, kind: AccessKind) -> float:
        """Dispatch a Fig-2 probe by access kind."""
        if kind is AccessKind.LOAD:
            return self.flushed_load_ns(scheme)
        if kind is AccessKind.STORE:
            return self.flushed_store_writeback_ns(scheme)
        if kind is AccessKind.NT_STORE:
            return self.nt_store_ns(scheme)
        raise ConfigError(f"no Fig-2 probe for {kind}")

    # -- pointer chasing -----------------------------------------------------

    def memory_side_ns(self, scheme: MemoryScheme) -> float:
        """Everything past the LLC miss: mesh + home agent + backend read."""
        socket = self.system.socket
        return (socket.mesh.traverse_ns()
                + socket.config.home_agent_ns
                + self._backend(scheme).idle_read_ns())

    def pointer_chase_ns(self, scheme: MemoryScheme,
                         working_set_bytes: int | None = None) -> float:
        """Average dependent-load latency ('ptr-chase').

        With no ``working_set_bytes`` the chase misses every level
        (MEMO's 1 GiB default); with one, the analytic WSS staircase of
        Fig. 2 (right) applies, computed straight from the socket's
        :class:`~repro.config.CacheConfig` by
        :func:`~repro.cache.hierarchy.expected_latency_ns` — the same
        floats as :meth:`CacheHierarchy.expected_latency_ns`, without
        building the functional caches.  Prefetchers are disabled in
        this test and would not help a dependent chain anyway.
        """
        if working_set_bytes is None:
            return self.read_path_ns(scheme)
        return expected_latency_ns(self.system.socket.config.cache,
                                   working_set_bytes,
                                   self.memory_side_ns(scheme))
