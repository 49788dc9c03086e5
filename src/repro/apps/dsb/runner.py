"""Open-loop DES driver for the social network (Fig 10's p99 curves)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ...cpu.system import System
from ...errors import WorkloadError
from ...sim import Engine, LatencyRecorder
from ...sim.rng import substream
from ...telemetry import NULL_TELEMETRY, Telemetry
from .socialnet import (
    MIXED_WORKLOAD,
    PARALLEL_GROUPS,
    RequestType,
    SocialNetwork,
)

DSB_TRACK = "apps.dsb"


@dataclass(frozen=True)
class DsbResult:
    """p99 (and mean) end-to-end latency of one (mix, node, QPS) run."""

    target_qps: float
    achieved_qps: float
    p99_ms: float
    mean_ms: float
    requests: int

    @property
    def saturated(self) -> bool:
        return self.achieved_qps < 0.95 * self.target_qps


class DsbRunner:
    """Simulates the service graph under Poisson load."""

    def __init__(self, system: System, *, database_node: int,
                 seed: int = 3,
                 telemetry: Telemetry | None = None) -> None:
        self.system = system
        self.network = SocialNetwork(system, database_node=database_node)
        self.seed = seed
        self.telemetry = telemetry if telemetry is not None \
            else NULL_TELEMETRY

    def run(self, qps: float, *,
            mix: dict[RequestType, float] | None = None,
            requests: int = 4000) -> DsbResult:
        """Drive ``requests`` arrivals at ``qps``; measure sojourn p99.

        Each request walks its recipe on engine callbacks: a visit is a
        :meth:`Server.acquire` grant that samples the service time and
        schedules the visit's end, and the leg's position rides along
        as callback arguments.  Compose-post's concurrent stages run as
        separate legs that count down a per-request join.
        """
        if not 0 < qps < math.inf:
            raise WorkloadError(
                f"qps must be positive and finite: {qps}")
        if requests <= 0:
            raise WorkloadError(f"requests must be positive: {requests}")
        if mix is None:
            mix = MIXED_WORKLOAD
        if not mix:
            raise WorkloadError("mix must name at least one request type")
        for request, share in mix.items():
            if not isinstance(request, RequestType):
                raise WorkloadError(
                    f"mix key {request!r} is not a RequestType")
            if not share >= 0:       # also false for NaN
                raise WorkloadError(
                    f"mix[{request.value}] share must be non-negative: "
                    f"{share}")
        if abs(sum(mix.values()) - 1.0) > 1e-9:
            raise WorkloadError("request mix must sum to 1")

        engine = Engine(telemetry=self.telemetry)
        schedule = engine.schedule
        tracer = self.telemetry.tracer
        traced = tracer.enabled
        rng = substream(f"dsb-{self.seed}", self.seed)
        random = rng.random
        sojourn = LatencyRecorder("dsb")
        record = sojourn.record
        completed = [0]
        last_done = [0.0]
        types = list(mix.keys())
        shares = np.array([mix[t] for t in types])

        # Per request type, flatten the recipe once into the serial
        # chain and the concurrent legs, each a tuple of
        # (server, sampler, whole visits, fractional visit) steps.
        serials: dict[RequestType, tuple] = {}
        forks: dict[RequestType, tuple] = {}
        for request in types:
            group = PARALLEL_GROUPS[request]
            serial: list = []
            legs: list = []
            for stage, visits in self.network.recipe(request):
                whole = int(visits)
                step = (stage.server, stage.sample_service_ns, whole,
                        visits - whole)
                if stage.stage.name in group:
                    legs.append((step,))
                else:
                    serial.append(step)
            serials[request] = tuple(serial)
            forks[request] = tuple(legs)

        def proceed(steps, index, left, done, state):
            """Advance a leg to its next visit's acquire, or end it.

            ``left`` counts the whole visits still owed at
            ``steps[index]``; at 0 the stage's fractional-visit coin is
            due, and -1 moves on to the next stage.
            """
            while True:
                if left > 0:
                    left -= 1
                elif (left == 0 and steps[index][3] > 0
                      and random() < steps[index][3]):
                    left = -1
                else:
                    index += 1
                    if index == len(steps):
                        done(state)
                        return
                    left = steps[index][2]
                    continue
                server = steps[index][0]
                server.acquire(granted, server, steps, index, left, done,
                               state)
                return

        def granted(server, steps, index, left, done, state):
            # Service time is sampled at grant time.
            schedule(steps[index][1](rng), finished, server, steps, index,
                     left, done, state)

        def finished(server, steps, index, left, done, state):
            # Release first: a freed slot may grant a waiter that
            # samples before this leg draws its next coin.
            server.release()
            proceed(steps, index, left, done, state)

        def complete(state):
            now = engine.now
            arrival = state[2]
            record(now - arrival)
            completed[0] += 1
            last_done[0] = now
            if traced:
                tracer.complete(DSB_TRACK, state[1].value, arrival,
                                now - arrival)

        def fork(state):
            # The compose-post pattern: media/text processing and the
            # database writes overlap, and the reply waits for all.
            legs = forks[state[1]]
            if not legs:
                complete(state)
                return
            state[0] = len(legs)
            for leg in legs:
                proceed(leg, -1, -1, join, state)

        def join(state):
            state[0] -= 1
            if not state[0]:
                complete(state)

        gaps = rng.exponential(1e9 / qps, size=requests)
        # One batched draw consumes the exact word stream of the
        # historical per-request rng.choice calls.
        choices = rng.choice(len(types), size=requests, p=shares)
        arrival = 0.0
        for index in range(requests):
            arrival += float(gaps[index])
            request = types[int(choices[index])]
            # state: [legs left to join, request type, arrival time]
            engine.schedule_at(arrival, proceed, serials[request], -1, -1,
                               fork, [0, request, arrival])
        engine.run()

        if completed[0] == 0:
            raise WorkloadError("no requests completed")
        registry = self.telemetry.registry
        registry.counter("apps.dsb.requests").inc(completed[0])
        registry.gauge("apps.dsb.p99_sojourn_ns").set(sojourn.p99())
        elapsed_s = last_done[0] / 1e9
        return DsbResult(target_qps=qps,
                         achieved_qps=completed[0] / elapsed_s,
                         p99_ms=sojourn.p99() / 1e6,
                         mean_ms=sojourn.mean() / 1e6,
                         requests=completed[0])

    # -- convenience -----------------------------------------------------------

    def point_spec(self, qps: float, *,
                   request_type: RequestType | None = None,
                   requests: int = 4000) -> tuple:
        """The picklable :func:`~repro.parallel.sweeps.run_sim_point`
        spec of one :meth:`p99_curve` point: a fresh runner with this
        one's system, database node and seed (telemetry stays off)."""
        return (DsbRunner,
                {"system": self.system,
                 "database_node": self.network.database_node,
                 "seed": self.seed},
                {"qps": qps, "mix": _mix(request_type),
                 "requests": requests})

    def p99_curve(self, qps_points: list[float], *,
                  request_type: RequestType | None = None,
                  requests: int = 4000):
        """p99 (ms) vs QPS for one request type (or the mixed workload).

        Points are independent runs; Fig 10 runs each as its own unit
        (:meth:`point_spec`) and builds the same series with
        :meth:`p99_series`.
        """
        return self.p99_series(
            qps_points, [self.run(qps, mix=_mix(request_type),
                                  requests=requests)
                         for qps in qps_points],
            request_type=request_type)

    def curve_name(self, request_type: RequestType | None = None) -> str:
        """``<request type>@<database tier>``, e.g. ``mixed@cxl``."""
        label = request_type.value if request_type else "mixed"
        node = self.network.database_node
        return f"{label}@{self.system.topology.node(node).kind.value}"

    def p99_series(self, qps_points: list[float], results: list[DsbResult],
                   *, request_type: RequestType | None = None):
        """The p99 curve of ``request_type`` on this runner's database
        tier, from its points' results."""
        from ...analysis.series import Series
        series = Series(self.curve_name(request_type), x_label="QPS",
                        y_label="p99 (ms)")
        for qps, result in zip(qps_points, results):
            series.append(qps, result.p99_ms)
        return series


def _mix(request_type: RequestType | None) -> dict[RequestType, float]:
    """One request type alone, or the mixed workload for ``None``."""
    return MIXED_WORKLOAD if request_type is None else {request_type: 1.0}
