"""A bank-accurate DRAM channel simulator.

Replays a line-address stream against :class:`~repro.mem.banks.Bank`
state machines with the three channel-level constraints that set real
efficiency:

* the shared data bus — one BL8 burst at a time;
* per-bank timing — row hits vs precharge+activate misses (tRAS held);
* the tFAW window — at most four activates per rolling window.

Its purpose is validation: the achieved-bandwidth ratios it produces for
sequential and random streams should bracket the calibrated
``sequential_efficiency`` / ``random_efficiency`` constants the analytic
layer uses (tests/mem/test_dram_sim.py replays both streams).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..errors import DeviceError
from .banks import Bank, DdrTimings


@dataclass(frozen=True)
class ChannelSimResult:
    """Outcome of one replayed request stream."""

    requests: int
    elapsed_ns: float
    row_hits: int
    row_misses: int

    @property
    def bandwidth(self) -> float:
        """Achieved B/s (64 B per request)."""
        if self.elapsed_ns <= 0:
            raise DeviceError("empty simulation window")
        return self.requests * 64 / (self.elapsed_ns / 1e9)

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def efficiency(self, timings: DdrTimings) -> float:
        """Achieved fraction of the channel's pin-rate peak."""
        return self.bandwidth / timings.peak_bandwidth


class DramChannelSim:
    """One channel: banks + shared bus + tFAW accounting."""

    def __init__(self, timings: DdrTimings) -> None:
        self.timings = timings
        self.banks = [Bank(timings, i) for i in range(timings.banks)]
        self._bus_free_at = 0.0
        self._activate_times: deque[float] = deque(maxlen=4)

    def _map(self, line: int) -> tuple[int, int]:
        """Line address -> (bank, row).

        Consecutive lines share a row within one bank (open-page
        mapping); rows then stripe across banks, which is what gives a
        single sequential stream bank-level pipelining across row
        boundaries.
        """
        lines_per_row = self.timings.lines_per_row
        row_index = line // lines_per_row
        bank = row_index % self.timings.banks
        row = row_index // self.timings.banks
        return bank, row

    def _respect_tfaw(self, activate_at: float) -> float:
        """Delay an activate so no window of four exceeds tFAW."""
        if len(self._activate_times) == 4:
            earliest = self._activate_times[0]
            activate_at = max(activate_at,
                              earliest + self.timings.tfaw_ns)
        self._activate_times.append(activate_at)
        return activate_at

    def replay(self, lines: np.ndarray) -> ChannelSimResult:
        """Run a line-address stream to completion."""
        if lines.size == 0:
            raise DeviceError("empty request stream")
        now = 0.0
        last_data_end = 0.0
        for line in lines:
            bank_index, row = self._map(int(line))
            bank = self.banks[bank_index]
            will_miss = bank.open_row != row
            if will_miss:
                now = self._respect_tfaw(now)
            data_at, _ = bank.access(row, now)
            # The shared data bus serializes bursts.
            burst_start = max(data_at, self._bus_free_at)
            self._bus_free_at = burst_start + self.timings.burst_ns
            last_data_end = self._bus_free_at
            # In-order front end: the next request can issue immediately
            # (bank-level parallelism comes from the per-bank horizons).
        hits = sum(b.row_hits for b in self.banks)
        misses = sum(b.row_misses for b in self.banks)
        return ChannelSimResult(requests=int(lines.size),
                                elapsed_ns=last_data_end,
                                row_hits=hits, row_misses=misses)

    @staticmethod
    def interleaved_streams(threads: int, *, lines_per_thread: int,
                            region_lines: int = 1 << 18) -> np.ndarray:
        """What the controller sees under multi-threaded streaming.

        Each thread walks its own distant region sequentially; requests
        arrive round-robin.  This is §4.3.1's closing observation made
        concrete: "the memory controller ... received requests with
        fewer patterns as the thread count increased" — consecutive
        requests land in different rows, and row locality collapses as
        threads multiply.
        """
        if threads <= 0 or lines_per_thread <= 0:
            raise DeviceError("threads and lines must be positive")
        # Stagger regions by one row each so streams start in different
        # banks (as virtual-to-physical mappings scatter them in
        # practice); contention appears once threads exceed banks.
        row_lines = 128
        streams = np.stack([
            np.arange(lines_per_thread, dtype=np.int64)
            + thread * (region_lines + row_lines)
            for thread in range(threads)])
        # Round-robin interleave: column-major flatten.
        return streams.T.reshape(-1)

    def measured_multistream_efficiency(self, threads: int, *,
                                        lines_per_thread: int = 2048
                                        ) -> float:
        """Achieved fraction of peak for ``threads`` interleaved streams."""
        stream = self.interleaved_streams(
            threads, lines_per_thread=lines_per_thread)
        return DramChannelSim(self.timings).replay(stream).efficiency(
            self.timings)
