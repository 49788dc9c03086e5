"""The :class:`FaultInjector`: draws faults, counts every one.

One injector is built *per simulation run* from a :class:`FaultPlan`
and a stream label, so a sweep rebuilt point-by-point in worker
processes draws exactly what a serial loop draws (the parallel
determinism contract).  Draws come from
:func:`repro.sim.rng.decision_uniform` — stateless, addressed by
``(plan.seed, stream, *decision key)`` — so visiting decision points in
a different order, or not at all, never perturbs other decisions.

Every injected fault and every recovery increments both a local tally
(shipped back inside results, cheap and always on) and a
``faults.*`` counter in the run's telemetry registry (docs/FAULTS.md
lists them all).
"""

from __future__ import annotations

from hashlib import blake2b

from ..telemetry import NULL_TELEMETRY, Telemetry
from .plan import FaultPlan

# Registry counter names (docs/FAULTS.md, docs/TELEMETRY.md).
CRC_ERRORS = "faults.crc_errors"
POISONED = "faults.poisoned_responses"
TIMEOUTS = "faults.timeouts"
STALLS = "faults.stalls"
STALL_NS = "faults.stall_ns_total"
RETRIES = "faults.retries"
RECOVERIES = "faults.recoveries"


class FaultInjector:
    """Per-run fault source: deterministic draws plus accounting."""

    def __init__(self, plan: FaultPlan, *, stream: str = "faults",
                 telemetry: Telemetry | None = None) -> None:
        self.plan = plan
        self.stream = stream
        # The ``seed:stream:`` head of every key this injector hashes.
        self._head = ":".join(map(str, (plan.seed, stream))) + ":"
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY
        self.injected = 0        # faults injected this run
        self.recovered = 0       # faults the protocol absorbed

    # -- draws -------------------------------------------------------------

    def _uniform(self, *key: object) -> float:
        """``decision_uniform(plan.seed, stream, *key)`` for a non-empty
        ``key``: the same bytes hashed, with the head joined once."""
        material = self._head + ":".join(map(str, key))
        return int.from_bytes(blake2b(material.encode(),
                                      digest_size=8).digest(),
                              "little") / 2.0 ** 64

    def crc_transmissions(self, flits: int, *key: object) -> int:
        """Total flit sends for ``flits`` flits, CRC retries included.

        Each flit retransmits while its per-attempt draw lands under
        ``crc_rate`` (a truncated geometric, capped at ``max_retries``
        extra sends).  Every retransmission is a counted fault *and* a
        counted recovery — the link-layer retry buffer never loses a
        flit, it only burns wire time.
        """
        rate = self.plan.crc_rate
        if rate <= 0.0:
            return flits
        total = 0
        errors = 0
        for flit in range(flits):
            attempt = 1
            while attempt <= self.plan.max_retries \
                    and self._uniform("crc", *key, flit, attempt) < rate:
                attempt += 1
                errors += 1
            total += attempt
        if errors:
            self.injected += errors
            self.recovered += errors
            registry = self.telemetry.registry
            registry.counter(CRC_ERRORS).inc(errors)
            registry.counter(RETRIES).inc(errors)
            registry.counter(RECOVERIES).inc(errors)
        return total

    def poisoned(self, *key: object) -> bool:
        """Whether this response arrives poisoned (host must re-read)."""
        if self.plan.poison_rate <= 0.0:
            return False
        hit = self._uniform("poison", *key) < self.plan.poison_rate
        if hit:
            self.injected += 1
            self.telemetry.registry.counter(POISONED).inc()
        return hit

    def timeout(self, *key: object) -> bool:
        """Whether the device transiently times out on this request."""
        if self.plan.timeout_rate <= 0.0:
            return False
        hit = self._uniform("timeout", *key) < self.plan.timeout_rate
        if hit:
            self.injected += 1
            self.telemetry.registry.counter(TIMEOUTS).inc()
        return hit

    def stall_ns(self, *key: object) -> float:
        """Extra device-side stall injected into this request (0 or
        ``plan.stall_ns``)."""
        if self.plan.stall_rate <= 0.0:
            return 0.0
        if self._uniform("stall", *key) < self.plan.stall_rate:
            self.injected += 1
            self.recovered += 1      # a stall only delays; nothing to redo
            registry = self.telemetry.registry
            registry.counter(STALLS).inc()
            registry.counter(STALL_NS).inc(self.plan.stall_ns)
            registry.counter(RECOVERIES).inc()
            return self.plan.stall_ns
        return 0.0

    # -- labeled per-request extras ----------------------------------------

    def request_extras(self, *key: object, reread_ns: float
                       ) -> tuple[list[tuple[str, float]], int]:
        """All request-level fault latency for one request, labeled.

        Draws the stall / timeout / poison decisions for the decision
        key (usually a request index; resilient runs add an attempt
        discriminator so each retry/hedge attempt draws independently)
        in the canonical order and returns ``(parts,
        pending_recoveries)`` where ``parts`` is a list of
        ``(span_component, ns)`` entries — one per fault that hit — and
        ``pending_recoveries`` counts the request-level retries to
        absolve via :meth:`recovery` once the request completes.
        ``reread_ns`` is what re-fetching the record's lines costs (the
        poison path re-reads them all).

        The summed parts equal exactly what inlined draws would have
        added to a request's service time, so callers can use this on
        both spanned and spans-off paths without perturbing results.
        """
        parts: list[tuple[str, float]] = []
        pending = 0
        stall = self.stall_ns(*key)
        if stall:
            parts.append(("fault.stall", stall))
        if self.timeout(*key):
            parts.append(("fault.timeout",
                          self.plan.timeout_ns + self.plan.retry_backoff_ns))
            self.retried()
            pending += 1
        if self.poisoned(*key):
            # Discard the poisoned response, re-read every line.
            parts.append(("fault.reread",
                          reread_ns + self.plan.retry_backoff_ns))
            self.retried()
            pending += 1
        return parts, pending

    # -- recovery accounting ----------------------------------------------

    def retried(self) -> None:
        """A request-level retry was issued (poison or timeout path)."""
        self.telemetry.registry.counter(RETRIES).inc()

    def recovery(self) -> None:
        """A previously injected request-level fault was absorbed."""
        self.recovered += 1
        self.telemetry.registry.counter(RECOVERIES).inc()


def injector_for(plan: FaultPlan | None, *, stream: str,
                 telemetry: Telemetry | None = None
                 ) -> FaultInjector | None:
    """An injector for ``plan``, or ``None`` when the plan is absent or
    inactive — callers branch on ``None`` to keep the unperturbed hot
    path byte-identical to a fault-free build."""
    if plan is None or not plan.active:
        return None
    return FaultInjector(plan, stream=stream, telemetry=telemetry)
