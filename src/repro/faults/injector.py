"""The :class:`FaultInjector`: draws faults, tallies every one.

One injector is built *per simulation run* from a :class:`FaultPlan`
and a stream label, so a sweep rebuilt point-by-point in worker
processes draws exactly what a serial loop draws (the parallel
determinism contract).  Draws come from
:func:`repro.sim.rng.decision_uniform` — stateless, addressed by
``(plan.seed, stream, *decision key)`` — so visiting decision points in
a different order, or not at all, never perturbs other decisions.

Every injected fault and every recovery increments a local tally,
``injected`` or ``recovered``, which results carry back
(docs/FAULTS.md).
"""

from __future__ import annotations

from hashlib import blake2b

from .plan import FaultPlan


class FaultInjector:
    """Per-run fault source: deterministic draws plus accounting."""

    def __init__(self, plan: FaultPlan, *, stream: str = "faults") -> None:
        self.plan = plan
        self.stream = stream
        # The ``seed:stream:`` head of every key this injector hashes.
        self._head = ":".join(map(str, (plan.seed, stream))) + ":"
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
        self.injected += errors
        self.recovered += errors
        return total

    def poisoned(self, *key: object) -> bool:
        """Whether this response arrives poisoned (host must re-read)."""
        if self.plan.poison_rate <= 0.0:
            return False
        hit = self._uniform("poison", *key) < self.plan.poison_rate
        self.injected += hit
        return hit

    def timeout(self, *key: object) -> bool:
        """Whether the device transiently times out on this request."""
        if self.plan.timeout_rate <= 0.0:
            return False
        hit = self._uniform("timeout", *key) < self.plan.timeout_rate
        self.injected += hit
        return hit

    def stall_ns(self, *key: object) -> float:
        """Extra device-side stall injected into this request (0 or
        ``plan.stall_ns``)."""
        if self.plan.stall_rate <= 0.0:
            return 0.0
        if self._uniform("stall", *key) < self.plan.stall_rate:
            self.injected += 1
            self.recovered += 1      # a stall only delays; nothing to redo
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
            pending += 1
        if self.poisoned(*key):
            # Discard the poisoned response, re-read every line.
            parts.append(("fault.reread",
                          reread_ns + self.plan.retry_backoff_ns))
            pending += 1
        return parts, pending

    # -- recovery accounting ----------------------------------------------

    def recovery(self) -> None:
        """A previously injected request-level fault was absorbed."""
        self.recovered += 1


def injector_for(plan: FaultPlan | None, *, stream: str
                 ) -> FaultInjector | None:
    """An injector for ``plan``, or ``None`` when the plan is absent or
    inactive — callers branch on ``None`` to keep the unperturbed hot
    path byte-identical to a fault-free build."""
    if plan is None or not plan.active:
        return None
    return FaultInjector(plan, stream=stream)
