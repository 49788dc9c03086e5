"""Picklable work-unit functions shipped to worker processes.

Everything here is a module-level function taking one picklable spec —
the form the executor in :mod:`repro.parallel.runner` requires.
``repro-experiments`` sends every unit through :func:`run_unit`, which
applies the test fault hooks and calls the unit's own function:

* :func:`run_experiment` — one whole registered experiment;
* :func:`run_sim_point` — one DES configuration: a
  :class:`~repro.cxl.e2e_sim.CxlEndToEndSim` severity point (figF) or
  a :class:`~repro.apps.dsb.runner.DsbRunner` p99 point (Fig 10);
* :func:`run_kv_p99_point` — one (placement, QPS) point of a
  Redis-YCSB p99 curve (Fig 6);
* :func:`run_cluster_point` — one cluster sweep point (figC, figR and
  the scenarios): builds the topology *inside* the worker (pool
  carving is per-point state) and runs the cluster DES.
"""

from __future__ import annotations

import os
from typing import Any

CRASH_ENV = "REPRO_TEST_UNIT_CRASH"
KILL_ENV = "REPRO_TEST_UNIT_KILL"
HANG_ENV = "REPRO_TEST_UNIT_HANG"
FLAKY_ENV = "REPRO_TEST_UNIT_FLAKY"


def _apply_test_faults(experiment_id: str) -> None:
    """Env-triggered worker misbehavior, for resilience tests and CI.

    These hooks exist so the supervision layer can be exercised
    end-to-end against *real* experiment units without patching code:

    * ``REPRO_TEST_UNIT_CRASH=id[,id…]`` — raise inside the unit;
    * ``REPRO_TEST_UNIT_KILL=id[,id…]`` — die without reporting
      (``os._exit(137)``, the OOM-kill shape);
    * ``REPRO_TEST_UNIT_HANG=id[:seconds][,id…]`` — sleep (default
      3600 s) so a ``--unit-timeout`` or SIGINT drain must intervene;
    * ``REPRO_TEST_UNIT_FLAKY=id:marker-path[,…]`` — crash on the
      first run only (the marker file records the prior attempt), the
      retry-then-succeed shape.

    All are inert unless the variable is set; production runs never
    pay for them beyond four ``os.environ`` reads.
    """
    crash = os.environ.get(CRASH_ENV)
    if crash and experiment_id in crash.split(","):
        raise RuntimeError(
            f"injected crash in {experiment_id} ({CRASH_ENV})")
    kill = os.environ.get(KILL_ENV)
    if kill and experiment_id in kill.split(","):
        os._exit(137)
    hang = os.environ.get(HANG_ENV)
    if hang:
        for part in hang.split(","):
            name, _, seconds = part.partition(":")
            if name == experiment_id:
                import time

                time.sleep(float(seconds) if seconds else 3600.0)
    flaky = os.environ.get(FLAKY_ENV)
    if flaky:
        for part in flaky.split(","):
            name, _, marker = part.partition(":")
            if name == experiment_id and marker:
                if not os.path.exists(marker):
                    with open(marker, "w") as handle:
                        handle.write("attempted\n")
                    raise RuntimeError(
                        f"injected first-attempt crash in "
                        f"{experiment_id} ({FLAKY_ENV})")


def run_unit(spec: tuple) -> Any:
    """One ``repro-experiments`` unit: ``spec = (experiment_id, fn,
    fn_spec)``.  Applies the test fault hooks of ``experiment_id``, so
    they act in every unit of a point experiment, then returns
    ``fn(fn_spec)``."""
    experiment_id, fn, fn_spec = spec
    _apply_test_faults(experiment_id)
    return fn(fn_spec)


def run_experiment(spec: tuple) -> Any:
    """Run one registered experiment: ``spec = (experiment_id, fast,
    fault_plan, span_config, resilience)``, each of the last three
    ``None`` when unused.

    Importing :mod:`repro.experiments` populates the registry in the
    worker (fresh interpreters under spawn; a no-op under fork).
    """
    experiment_id, fast, fault_plan, span_config, resilience = spec
    from ..experiments import get

    return get(experiment_id).run(fast=fast, fault_plan=fault_plan,
                                  span_config=span_config,
                                  resilience=resilience)


def run_sim_point(spec: tuple) -> Any:
    """Run one simulator configuration: ``spec = (sim_class,
    init_kwargs, run_kwargs)``; returns ``sim_class(**init_kwargs)
    .run(**run_kwargs)``."""
    sim_class, init_kwargs, run_kwargs = spec
    return sim_class(**init_kwargs).run(**run_kwargs)


def run_kv_p99_point(spec: tuple) -> Any:
    """One Redis-YCSB p99 point: build the store, drive the server.

    ``spec = (system, num_keys, seed, workload, cxl_fraction, qps,
    requests)``; returns the :class:`~repro.apps.kvstore.server.RunResult`.
    Each point builds (and frees) its own store exactly as the serial
    loop does, so results match bit-for-bit.
    """
    system, num_keys, seed, workload, cxl_fraction, qps, requests = spec
    from ..apps.kvstore.ycsb_runner import RedisYcsbStudy

    study = RedisYcsbStudy(system, num_keys=num_keys, seed=seed)
    return study.p99_point(workload, cxl_fraction, qps,
                           requests=requests)


def run_cluster_point(spec: tuple) -> tuple[Any, dict | None]:
    """One cluster sweep point: topology + sim + open-loop run.

    ``spec`` is ``(topo_kwargs, sim_kwargs, run_kwargs, span_config)``
    with ``span_config`` ``None`` for a run without spans.  The worker
    rebuilds the :class:`~repro.cluster.ClusterTopology` from scratch —
    carving the pool is part of the point, so every process constructs
    an identical fleet — and every random draw inside
    :class:`~repro.cluster.ClusterSim` is counter-based or
    request-indexed, so a point's result does not depend on where it
    runs.  Returns ``(ClusterResult, span aggregate or None)``.
    """
    topo_kwargs, sim_kwargs, run_kwargs, span_config = spec
    from ..cluster import ClusterSim, ClusterTopology
    from ..telemetry import SpanRecorder

    spans = SpanRecorder(span_config) if span_config is not None else None
    topology = ClusterTopology(**topo_kwargs)
    sim = ClusterSim(topology, spans=spans, **sim_kwargs)
    result = sim.run(**run_kwargs)
    return result, spans.export() if spans is not None else None

