"""Oracle for ``CxlEndToEndSim``'s engine-free serving of read runs.

Without a fault plan a read attempt is one ``complete`` event, and
every send adds a response's flits to the S2M wire's clock, so
completions are due in send order; exact ties fire in scheduling
order, which is send order too.  The event queue is then a FIFO, and
``CxlEndToEndSim.run`` serves such a run, untraced, from a deque of the
reads in flight instead.  This module forces the event queue on the
same inputs, by patching the private eligibility predicate, and checks
over random shapes, MLP depths, controller latencies, page policies
and region sizes that both give the same :class:`E2eResult` and record
the same ``cxl.e2e.*`` metrics.  Both paths run every stage through
one helper, so there is no exact-tie caveat: the FIFO pops reads in
the order the queue would fire them.
"""

from __future__ import annotations

from contextlib import contextmanager, nullcontext
from dataclasses import asdict

import pytest
from hypothesis import event, given, settings, strategies as st

import repro.cxl.e2e_sim as e2e_sim
from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
from repro.cxl.port import CxlPort
from repro.errors import SimulationError
from repro.faults import ZERO_FAULTS, FaultPlan
from repro.mem.banks import DdrTimings, ddr4_2666_timings
from repro.sim.engine import Engine
from repro.telemetry import Telemetry

COMPARED_METRICS = ("cxl.e2e.",)


@contextmanager
def forced_des():
    """Serve every read run inside the block on the event queue."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(e2e_sim, "_engine_free",
                      lambda injector, traced: False)
        yield


@contextmanager
def counted_engine_runs():
    """Yields a list that gains one entry per ``Engine.run`` call."""
    calls = []
    run = Engine.run

    def counted(engine, *args, **kwargs):
        calls.append(1)
        return run(engine, *args, **kwargs)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Engine, "run", counted)
        yield calls


def _observe(sim_kwargs: dict, threads: int, lines: int, *, des: bool):
    """One read run's result and compared metrics, and how many times
    it ran the event queue."""
    telemetry = Telemetry.metrics_only()
    sim = CxlEndToEndSim(telemetry=telemetry, **sim_kwargs)
    with counted_engine_runs() as calls, \
            forced_des() if des else nullcontext():
        result = sim.run(threads=threads, lines_per_thread=lines)
    metrics = {key: value
               for key, value in telemetry.registry.snapshot().items()
               if key.startswith(COMPARED_METRICS)}
    return (result, metrics), len(calls)


@settings(max_examples=80, deadline=None)
@given(threads=st.integers(min_value=1, max_value=32),
       lines=st.integers(min_value=1, max_value=300),
       mlp=st.integers(min_value=1, max_value=24),
       controller_ns=st.floats(min_value=0.0, max_value=300.0),
       closed_page=st.booleans(),
       region_lines=st.one_of(st.sampled_from([1, 64, 1 << 18]),
                              st.integers(min_value=1, max_value=1 << 20)))
def test_engine_free_run_matches_the_event_queue(threads, lines, mlp,
                                                 controller_ns,
                                                 closed_page,
                                                 region_lines):
    sim_kwargs = {"mlp_per_thread": mlp, "controller_ns": controller_ns,
                  "closed_page": closed_page, "region_lines": region_lines}
    event("fill buffers refill" if lines > mlp else "no refill")
    fast, fast_runs = _observe(sim_kwargs, threads, lines, des=False)
    reference, des_runs = _observe(sim_kwargs, threads, lines, des=True)
    assert (fast_runs, des_runs) == (0, 1)
    assert fast == reference


def _engine_runs(sim) -> int:
    with counted_engine_runs() as calls:
        sim.run(threads=4, lines_per_thread=50)
    return len(calls)


def test_eligible_read_runs_build_no_event_queue():
    assert _engine_runs(CxlEndToEndSim()) == 0
    assert _engine_runs(CxlEndToEndSim(
        telemetry=Telemetry.metrics_only())) == 0
    # An inactive plan draws no faults: the fault-free path.
    assert _engine_runs(CxlEndToEndSim(fault_plan=ZERO_FAULTS)) == 0


@pytest.mark.parametrize("sim", [
    CxlEndToEndSim(telemetry=Telemetry.on()),
    CxlEndToEndSim(fault_plan=FaultPlan(poison_rate=0.01, seed=3)),
    CxlEndToEndSim(fault_plan=FaultPlan(link_width_fraction=0.5)),
    CxlWriteEndToEndSim(),
], ids=["traced", "fault-plan", "slowed-link", "write"])
def test_traced_faulted_and_write_runs_use_the_event_queue(sim):
    assert _engine_runs(sim) == 1


def test_engine_free_run_sets_no_engine_gauges():
    telemetry = Telemetry.metrics_only()
    CxlEndToEndSim(telemetry=telemetry).run(threads=2, lines_per_thread=20)
    assert not [key for key in telemetry.registry.snapshot()
                if key.startswith("sim.engine.")]


class _BackwardPort(CxlPort):
    """A port whose flits take negative time on the wire."""

    @property
    def raw_bandwidth(self) -> float:
        return -super().raw_bandwidth


class _BackwardBus(DdrTimings):
    """DRAM timings whose bursts take negative time on the data bus."""

    @property
    def burst_ns(self) -> float:
        return -super().burst_ns


def test_out_of_order_completion_names_the_line():
    """With time running backwards on every wire, a response can be
    due before the one sent ahead of it: no FIFO serves that."""
    sim = CxlEndToEndSim(port=_BackwardPort(), timings=_BackwardBus(
        **asdict(ddr4_2666_timings())))
    with pytest.raises(SimulationError, match=r"read of line \d+ "
                                              r"completes at .* before"):
        sim.run(threads=2, lines_per_thread=20)
