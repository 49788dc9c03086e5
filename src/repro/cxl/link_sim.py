"""A discrete-event, credit-based simulation of the CXL link.

The analytic throughput model asserts ceilings like "a Gen5 x16 port
sustains ``raw x 64/136`` of application read bandwidth".  This module
*derives* such numbers from first principles instead: it simulates the
link at flit granularity with the credit-based flow control CXL actually
uses (the receiver grants per-message-class credits; a sender stalls
without one), a fixed number of host-side outstanding requests (MLP),
and a device service stage.

Faults come from a :class:`~repro.faults.FaultPlan`: per-flit CRC
errors retransmit through the link-layer retry buffer (the 2 B CRC in
every 68 B flit, §2.1), device stalls stretch the service stage, and a
degraded link (retrained width or speed) stretches every flit's
serialization time.  Faults cost wire time and latency, never data —
``completed`` always reaches ``transactions``.

Used by tests to cross-validate the analytic layer, and useful on its
own for studying credit counts, buffer depths, and degraded modes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import SimulationError
from ..faults import FaultPlan, injector_for
from ..sim.engine import Engine
from ..units import SEC
from .e2e_sim import _require_counts, _require_latency
from .messages import MemTransaction, read_transaction
from .port import CxlPort


@dataclass
class LinkSimResult:
    """Outcome of one simulated transfer window."""

    completed: int
    elapsed_ns: float
    faults_injected: int = 0
    faults_recovered: int = 0

    @property
    def payload_bytes(self) -> int:
        return self.completed * 64

    @property
    def app_bandwidth(self) -> float:
        """Application B/s achieved."""
        if self.elapsed_ns <= 0:
            raise SimulationError("empty simulation window")
        return self.payload_bytes / (self.elapsed_ns / SEC)


class CreditedLinkSim:
    """Flit-clocked link with per-direction serialization and credits.

    Model per transaction (read shown; writes mirror it):

    1. the host consumes one request credit (stall if none), then
       serializes the request's flits onto the M2S wire (one flit at a
       time — the wire is a shared resource);
    2. after the hop latency, the device queues the request for its
       service stage (``device_service_ns`` each, ``device_parallelism``
       wide);
    3. the response serializes onto the S2M wire, pays the hop back, and
       releases the credit and one MLP slot.

    ``fault_plan`` injects CRC retransmissions, device stalls, and
    degraded link width/speed (docs/FAULTS.md).
    """

    def __init__(self, port: CxlPort, *, device_service_ns: float,
                 device_parallelism: int = 8,
                 request_credits: int = 32,
                 fault_plan: FaultPlan | None = None) -> None:
        _require_latency(device_service_ns=device_service_ns)
        _require_counts(device_parallelism=device_parallelism,
                        request_credits=request_credits)
        self.port = port
        self.device_service_ns = device_service_ns
        self.device_parallelism = device_parallelism
        self.request_credits = request_credits
        self.fault_plan = fault_plan

    def _flit_time_ns(self) -> float:
        """Serialization time of one 68 B flit at the (possibly
        degraded) PHY rate."""
        base = 68 / self.port.raw_bandwidth * SEC
        if self.fault_plan is not None:
            return base * self.fault_plan.link_slowdown
        return base

    def run(self, txn_template: MemTransaction, *, transactions: int,
            mlp: int) -> LinkSimResult:
        """Simulate ``transactions`` back-to-back ops at host MLP."""
        _require_counts(transactions=transactions, mlp=mlp)
        engine = Engine()
        flit_ns = self._flit_time_ns()
        hop_ns = self.port.phy.config.hop_latency_ns
        request_flits = -(-txn_template.request_slots // 3)
        response_flits = -(-txn_template.response_slots // 3)
        injector = injector_for(self.fault_plan, stream="linksim")

        state = {
            "launched": 0, "completed": 0, "credits": self.request_credits,
            "mlp_free": mlp, "m2s_free_at": 0.0, "s2m_free_at": 0.0,
            "device_busy": 0, "device_queue": 0, "last_done": 0.0,
        }
        def try_launch() -> None:
            while (state["launched"] < transactions
                   and state["mlp_free"] > 0 and state["credits"] > 0):
                txn = state["launched"]
                state["launched"] += 1
                state["mlp_free"] -= 1
                state["credits"] -= 1
                sends = request_flits if injector is None \
                    else injector.crc_transmissions(request_flits,
                                                    "m2s", txn)
                start = max(engine.now, state["m2s_free_at"])
                state["m2s_free_at"] = start + sends * flit_ns
                arrive = state["m2s_free_at"] + hop_ns
                engine.schedule(arrive - engine.now, device_arrival, txn)

        def device_arrival(txn: int) -> None:
            state["device_queue"] += 1
            drain_device(txn)

        def drain_device(txn: int) -> None:
            while (state["device_queue"] > 0
                   and state["device_busy"] < self.device_parallelism):
                state["device_queue"] -= 1
                state["device_busy"] += 1
                service = self.device_service_ns
                if injector is not None:
                    service += injector.stall_ns("service", txn)
                engine.schedule(service, device_done, txn)

        def device_done(txn: int) -> None:
            state["device_busy"] -= 1
            sends = response_flits if injector is None \
                else injector.crc_transmissions(response_flits,
                                                "s2m", txn)
            start = max(engine.now, state["s2m_free_at"])
            state["s2m_free_at"] = start + sends * flit_ns
            engine.schedule(state["s2m_free_at"] + hop_ns - engine.now,
                            response_arrival)
            drain_device(txn)

        def response_arrival() -> None:
            state["completed"] += 1
            state["credits"] += 1
            state["mlp_free"] += 1
            state["last_done"] = engine.now
            try_launch()

        try_launch()
        engine.run()
        if state["completed"] != transactions:
            raise SimulationError(
                f"only {state['completed']} of {transactions} completed")
        return LinkSimResult(
            completed=state["completed"],
            elapsed_ns=state["last_done"],
            faults_injected=injector.injected if injector else 0,
            faults_recovered=injector.recovered if injector else 0)

    # -- convenience -----------------------------------------------------------

    def read_bandwidth(self, *, transactions: int = 2000,
                       mlp: int = 64) -> float:
        """Achieved read bandwidth (B/s) at high host parallelism."""
        return self.run(read_transaction(), transactions=transactions,
                        mlp=mlp).app_bandwidth
