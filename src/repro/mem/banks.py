"""DDR bank-level timing: the physics under ``row_locality_efficiency``.

The analytic layer uses calibrated efficiency constants (sequential
~0.72 of peak, random ~0.38).  This module models where those numbers
come from: JEDEC-style bank timing.  A bank holds one open row; a hit
costs CAS latency plus the burst, a miss adds precharge + activate, and
the four-activate window (tFAW) throttles how fast row misses can be
spread across banks — the first-order reason random 64 B traffic
sustains only a third of the pin rate.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import DeviceError


@dataclass(frozen=True)
class DdrTimings:
    """The timing subset that bounds bandwidth (all in ns)."""

    name: str
    transfer_mt_s: float
    banks: int
    trcd_ns: float      # activate -> column command
    trp_ns: float       # precharge
    tcl_ns: float       # CAS latency
    tras_ns: float      # activate -> precharge minimum
    tfaw_ns: float      # window for any four activates
    row_bytes: int = 8192

    def __post_init__(self) -> None:
        if self.transfer_mt_s <= 0 or self.banks <= 0:
            raise DeviceError("rate and banks must be positive")
        if min(self.trcd_ns, self.trp_ns, self.tcl_ns, self.tras_ns,
               self.tfaw_ns) < 0:
            raise DeviceError("timings must be non-negative")

    @property
    def burst_ns(self) -> float:
        """One BL8 burst (64 B over an 8-bit-beats x8-byte bus)."""
        return 8 / self.transfer_mt_s * 1e3

    @property
    def peak_bandwidth(self) -> float:
        """Pin-rate peak of one channel, B/s."""
        return self.transfer_mt_s * 1e6 * 8

    @property
    def lines_per_row(self) -> int:
        return self.row_bytes // 64


def ddr5_4800_timings() -> DdrTimings:
    """DDR5-4800 CL40-39-39 class timings."""
    return DdrTimings(name="DDR5-4800", transfer_mt_s=4800, banks=32,
                      trcd_ns=16.0, trp_ns=16.0, tcl_ns=16.6,
                      tras_ns=32.0, tfaw_ns=13.3)


def ddr4_2666_timings() -> DdrTimings:
    """DDR4-2666 CL19 class timings (the Agilex DIMM)."""
    return DdrTimings(name="DDR4-2666", transfer_mt_s=2666, banks=16,
                      trcd_ns=14.25, trp_ns=14.25, tcl_ns=14.25,
                      tras_ns=32.0, tfaw_ns=21.0)


class Bank:
    """One DRAM bank: an open row plus CAS/activate pipelining state.

    Column commands to an open row pipeline at tCCD (= one burst time),
    so a single-bank row-hit stream delivers data at the pin rate; the
    CAS latency is a pipeline *depth*, paid once per dependent request,
    not an occupancy.  Row changes serialize on precharge + activate
    with tRAS respected.
    """

    def __init__(self, timings: DdrTimings, index: int) -> None:
        self.timings = timings
        self.index = index
        # The timings are frozen; cache the ones ``access`` reads so the
        # hot path skips the attribute chain and the ``burst_ns``
        # property evaluation (same expression, so bit-identical).
        self.burst_ns = timings.burst_ns
        self.tcl_ns = timings.tcl_ns
        self.trcd_ns = timings.trcd_ns
        self.trp_ns = timings.trp_ns
        self.tras_ns = timings.tras_ns
        self.open_row: int | None = None
        self.last_activate = -1e18
        self._next_cas_at = 0.0
        self.row_hits = 0
        self.row_misses = 0

    @property
    def busy_until(self) -> float:
        """When the bank can take the next column command."""
        return self._next_cas_at

    def access(self, row: int, now: float) -> tuple[float, bool]:
        """Issue one column access to ``row`` at/after ``now``.

        Returns ``(data_start_time, was_row_hit)``: the moment the burst
        may begin on the data bus (the caller serializes the bus).
        """
        hit = self.open_row == row
        # ``a if a >= b else b`` is ``max(a, b)`` without the call.
        next_cas_at = self._next_cas_at
        if hit:
            self.row_hits += 1
            cas_at = now if now >= next_cas_at else next_cas_at
        else:
            self.row_misses += 1
            activate_at = now if now >= next_cas_at else next_cas_at
            if self.open_row is not None:
                # Respect tRAS before precharging the old row.
                ras_at = self.last_activate + self.tras_ns
                if ras_at > activate_at:
                    activate_at = ras_at
                activate_at += self.trp_ns
            self.open_row = row
            self.last_activate = activate_at
            cas_at = activate_at + self.trcd_ns
        self._next_cas_at = cas_at + self.burst_ns
        data_at = cas_at + self.tcl_ns
        return data_at, hit
