"""MEMO — the paper's microbenchmark, reimplemented on the simulator.

§4.1 describes MEMO's capabilities; each maps to a bench class here:

1. *allocate memory from different sources* — every bench takes the
   target :class:`~repro.cpu.system.MemoryScheme` (DDR5-L8 / DDR5-R1 /
   CXL) and allocates via ``numa_alloc_onnode`` semantics;
2. *launch a specified number of testing threads, pin each thread to a
   core, and optionally enable or disable prefetching* — thread counts
   are swept and pinned one-per-core, prefetch is a flag;
3. *perform memory accesses using inline assembly* — access kinds are
   AVX-512 ``ld`` / ``st+wb`` / ``nt-st`` (+ ``movdir64B``), all 64 B.

Benches:

* :class:`~repro.memo.latency_bench.LatencyBench` — Fig 2 (left);
* :class:`~repro.memo.pointer_chase.PointerChaseBench` — Fig 2 (right);
* :class:`~repro.memo.bandwidth_bench.SequentialBandwidthBench` — Fig 3;
* :class:`~repro.memo.movdir_bench.MovdirBench` and
  :class:`~repro.memo.dsa_bench.DsaBench` — Fig 4;
* :class:`~repro.memo.random_bench.RandomBlockBench` — Fig 5.

``memo`` is also an installed CLI (see :mod:`repro.memo.cli`).
"""

from .report import BenchReport
from .latency_bench import LatencyBench
from .pointer_chase import PointerChaseBench, simulate_chase
from .bandwidth_bench import SequentialBandwidthBench
from .random_bench import RandomBlockBench
from .movdir_bench import MovdirBench
from .dsa_bench import DsaBench
from .loaded_latency import LoadedLatencyBench
from .trace import AccessTrace, ReplayResult, replay
from .traffic import measure_stream_traffic

__all__ = [
    "BenchReport",
    "LatencyBench",
    "PointerChaseBench",
    "simulate_chase",
    "SequentialBandwidthBench",
    "RandomBlockBench",
    "MovdirBench",
    "DsaBench",
    "LoadedLatencyBench",
    "AccessTrace",
    "ReplayResult",
    "replay",
    "measure_stream_traffic",
]
