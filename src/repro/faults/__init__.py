"""Deterministic CXL fault injection and degraded-mode simulation.

The paper's numbers come from a real FPGA-based CXL device that stalls,
retries, and backpressures under load (§4.3–§4.5); this package makes
those misbehaviors injectable so the simulators model degraded modes,
not just the happy path:

* :class:`FaultPlan` (:mod:`repro.faults.plan`) — a frozen, picklable
  fault configuration: per-flit CRC error rate, response poisoning,
  transient controller timeouts, device write-buffer stalls, and
  degraded link width/speed, plus retry/backoff policy and a seed;
* :class:`FaultInjector` (:mod:`repro.faults.injector`) — the per-run
  fault source.  Draws are *counter-based* (addressed by decision key,
  not by draw order), which gives two guarantees the test suite pins:
  serial and process-parallel runs inject identical faults, and raising
  a rate only ever adds faults (monotone degradation).

Faults perturb latency and bandwidth; they never lose work.  Every
injected fault is recovered by the protocol layer (retransmission,
re-issue after timeout/poison, or simply waiting out a stall) and both
sides are tallied — see docs/FAULTS.md for the fault model and the
``injected``/``recovered`` tallies, and the ``degraded-cxl`` experiment
for the headline sweep.
"""

from __future__ import annotations

from .injector import FaultInjector, injector_for
from .plan import ZERO_FAULTS, FaultPlan

__all__ = [
    "FaultInjector",
    "FaultPlan",
    "ZERO_FAULTS",
    "injector_for",
]
