"""One pass of one workload, in a fresh process (started by run.py).

Measures set-up, runs the workload's operations, measures peak memory,
and writes a JSON record to ``--result``: ``setup`` and ``work``, each
``[host seconds, speed]`` with the speed a :class:`SpeedProbe` saw,
``peak_rss_mb`` and, per operation, the payload digest and shape-check
verdicts (run.py judges them against the pinned digests).
With ``--traced`` the pass runs under :class:`layers.Recorder`, writes
``--trace-out`` and adds the per-layer metrics.

Usage (normally only run.py starts this)::

    python3 perfbench/child.py --workload cxl-stack --seed 7 \\
        --jobs 2 --result /path/result.json [--smoke] \\
        [--traced --trace-out /path/trace.json]
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import importlib.util
import json
import os
import resource
import signal
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCHED_EVENTS = 100_000
PROBE_PERIOD_S = 0.01
PROBE_KEYS = [(i * 2_654_435_761 % 1_000_003) / 1_000_003
              for i in range(500)]
# Thread CPU seconds one probe_piece takes on the reference host (2
# vCPUs at 2.1 GHz, Python 3.11.7) at its fastest: the 5th percentile
# of back-to-back runs.  Host times are rescaled to this speed.
REFERENCE_PIECE_S = 300e-6


def digest(payload) -> str:
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()[:16]


def peak_rss_mb() -> float:
    """The larger of this process's and its reaped children's peak
    resident set (``ru_maxrss`` is in KiB on Linux)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024


def probe_piece() -> None:
    """A fixed pure-Python heap-and-dict loop: one unit of host speed.

    It lives here, not in ``src/``, so no change to the simulator can
    make it faster; it only tracks how fast the host runs Python.
    """
    heap: list = []
    totals: dict = {}
    for index, key in enumerate(PROBE_KEYS):
        heapq.heappush(heap, (key, index))
        if len(heap) > 64:
            at, slot = heapq.heappop(heap)
            totals[slot & 255] = totals.get(slot & 255, 0.0) + at


def cpu_ticks(cpus: set[int]) -> tuple[int, int]:
    """(stolen, total) clock ticks of ``cpus`` since boot, from
    ``/proc/stat``; ``(0, 0)`` where that file cannot be read."""
    stolen = total = 0
    try:
        with open("/proc/stat") as stat:
            for line in stat:
                name, *fields = line.split()
                if name[:3] == "cpu" and name[3:].isdigit() \
                        and int(name[3:]) in cpus:
                    ticks = [int(field) for field in fields[:8]]
                    stolen += ticks[7]
                    total += sum(ticks)
    except OSError:
        pass
    return stolen, total


class SpeedProbe:
    """Measures the host's speed while a stretch of work runs.

    The host's CPUs flip between a fast and a slow state every few
    hundred milliseconds, and the share of time spent slow drifts over
    minutes (README.md, "Host speed").  So every ``PROBE_PERIOD_S`` of
    wall time a ``SIGALRM`` handler times one :func:`probe_piece` in
    thread CPU time, interleaved with the work itself; ``spent`` is the
    wall time the handler took, which the caller subtracts from the
    stretch.  The hypervisor also takes the CPUs away for whole
    stretches (steal time), which thread CPU time does not see, so
    ``running`` is the share of the CPUs' clock ticks over the stretch
    that were not stolen.

    ``speed`` is the mean of ``REFERENCE_PIECE_S / sample`` times
    ``running``: the rate at which work progressed, relative to the
    reference host, averaged over the stretch.
    """

    def __init__(self) -> None:
        self.samples = 0
        self.rate = 0.0
        self.spent = 0.0
        self.running = 1.0
        self._previous = None
        self._cpus: set[int] = set()
        self._ticks = (0, 0)

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        cpu = time.thread_time()
        probe_piece()
        self.rate += REFERENCE_PIECE_S / (time.thread_time() - cpu)
        self.samples += 1
        self.spent += time.perf_counter() - start

    @property
    def speed(self) -> float:
        return self.rate / self.samples * self.running

    def __enter__(self) -> SpeedProbe:
        self._cpus = os.sched_getaffinity(0)
        self._ticks = cpu_ticks(self._cpus)
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        stolen, total = (now - then for now, then
                         in zip(cpu_ticks(self._cpus), self._ticks))
        if total:
            self.running = 1 - stolen / total
        if not self.samples:        # a stretch shorter than one period
            self._sample()


def run_ops(ops) -> tuple[list, list]:
    """Run ``ops`` in order under a :class:`SpeedProbe`; returns
    (``[seconds, speed]``, ``[(op, payload, checks, error)]``).  An
    operation that raises is recorded, not fatal.  Probe time is not
    part of the seconds."""
    outcomes = []
    with SpeedProbe() as probe:
        start = time.perf_counter()
        for op in ops:
            try:
                payload, checks = op.run()
                outcomes.append((op, payload, checks, None))
            except Exception:
                outcomes.append((op, None, [],
                                 traceback.format_exc(limit=5)))
        seconds = time.perf_counter() - start - probe.spent
    return [seconds, probe.speed], outcomes


def rescaled(stretch: list) -> float:
    """Seconds of a ``[seconds, speed]`` stretch at the reference host
    speed."""
    seconds, speed = stretch
    return seconds * speed


def sched_events_per_s() -> float:
    """Raw scheduler throughput, from benchmarks/engine_events_per_sec.py."""
    spec = importlib.util.spec_from_file_location(
        "engine_events_per_sec",
        ROOT / "benchmarks" / "engine_events_per_sec.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.events_per_sec(SCHED_EVENTS)


def traced_pass(args, workloads, recorder) -> tuple:
    """The traced pass plus the extra runs its ratios need; returns
    ``run_ops``'s pair plus the per-layer metrics.

    ``cluster-policy`` repeats its points with spans off;
    ``suite-jobs`` adds a warm ``--jobs`` pass (cache hits) and a
    serial ``--no-cache`` pass (the ``--jobs`` speed-up).
    """
    ops = workloads.operations(args.workload, smoke=args.smoke,
                               jobs=args.jobs)
    ids = [eid for ids in workloads.SERIAL_IDS.values() for eid in ids]
    recorder.install()
    origin = time.perf_counter()
    stretch, outcomes = run_ops(ops)
    metrics = recorder.metrics(stretch[0], ids)
    trace = recorder.trace(origin)
    spans_kb = sum(len(json.dumps(payload["result"]["spans"]))
                   for _, payload, _, _ in outcomes
                   if isinstance(payload, dict)
                   and payload.get("result", {}).get("spans"))
    metrics["spans.payload_kb"] = spans_kb / 1024
    metrics["spans.overhead_ratio"] = 0.0
    metrics["parallel.jobs_speedup"] = 0.0
    metrics["parallel.cache_hits"] = 0.0
    if args.workload == "cluster-policy":
        off, _ = run_ops(workloads.operations(
            args.workload, smoke=args.smoke, jobs=args.jobs, spans=False))
        metrics["spans.overhead_ratio"] = rescaled(stretch) / rescaled(off)
    if args.workload == "suite-jobs":
        # The cache is now warm: one more --jobs pass reads it back.
        hits = recorder.counts["parallel.cache_hits"]
        run_ops(ops)
        metrics["parallel.cache_hits"] = \
            recorder.counts["parallel.cache_hits"] - hits
        serial, _ = run_ops([workloads.serial_suite(smoke=args.smoke)])
        metrics["parallel.jobs_speedup"] = \
            rescaled(serial) / rescaled(stretch)
    recorder.uninstall()
    metrics["sim.sched_events_per_s"] = sched_events_per_s()
    trace.update(workload=args.workload, seed=args.seed,
                 wall_s=stretch[0], metrics=metrics)
    Path(args.trace_out).write_text(json.dumps(trace) + "\n")
    return stretch, outcomes, metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--jobs", type=int, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)

    with SpeedProbe() as probe:
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import repro.experiments  # noqa: F401  (registry + scenario pack)
        from repro import build_system, combined_testbed

        build_system(combined_testbed())
        setup = [time.perf_counter() - start - probe.spent]
    setup.append(probe.speed)

    import workloads
    import layers

    workloads.set_seed(args.seed)
    metrics = {}
    if args.traced:
        stretch, outcomes, metrics = traced_pass(args, workloads,
                                                 layers.Recorder())
        load_start = time.perf_counter()
        repro.scenarios.load_pack()
        metrics["scenarios.load_ms"] = \
            (time.perf_counter() - load_start) * 1e3
    else:
        stretch, outcomes = run_ops(workloads.operations(
            args.workload, smoke=args.smoke, jobs=args.jobs))
    record = {
        "setup": setup, "work": stretch, "peak_rss_mb": peak_rss_mb(),
        "layers": metrics,
        "ops": [{"name": op.name, "seeded": op.seeded,
                 "digest": digest(payload) if error is None else None,
                 "checks": checks, "error": error}
                for op, payload, checks, error in outcomes]}
    Path(args.result).write_text(json.dumps(record) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
