"""CPU-side models: instruction kinds, cores, sockets, and whole systems.

The centerpiece is :class:`~repro.cpu.system.System`, which assembles a
:class:`~repro.config.SystemConfig` into runtime objects: a NUMA
topology, a page allocator, and one memory backend per node.  Everything
above this layer (MEMO, the perfmodel, the applications) addresses memory
through a ``System``.
"""

from .isa import AccessKind, FENCE_NS
from .core import Core
from .socket import Socket
from .system import MemoryScheme, System

__all__ = [
    "AccessKind",
    "FENCE_NS",
    "Core",
    "Socket",
    "System",
    "MemoryScheme",
]
