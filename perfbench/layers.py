"""Outside-in per-layer tracing for the benchmark's traced pass.

:class:`Recorder` wraps the public entry points of each simulator layer
from outside the program (the program itself is unchanged), keeps one
span per call in memory — name, start, end and the span that was open
when it began — and counts the work each call reports.  The traced
pass writes the spans to ``trace-<workload>.json`` when it ends.

A span's self time is its duration minus the time its child spans
cover.  Layer times below are *inclusive*: the time under a layer's
outermost spans, so a layer nested inside another (``sim`` inside
``cluster``) is counted in both shares.  DES model callbacks run inside
``Engine.run``, so their time belongs to ``sim``.

Work done inside forked worker processes is invisible here: the
workers record into their own copy of the recorder, which is lost.
"""

from __future__ import annotations

import pickle
import sys
import time
from collections import defaultdict
from functools import wraps


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    ``spans`` holds ``[name, start, end, parent_index]`` rows; children
    of one span never overlap (the traced code is single-threaded).
    """
    selfs = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent is not None:
            selfs[parent] -= end - start
    return selfs


class Recorder:
    """In-memory spans and counters around wrapped entry points."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, self.clock(), None, parent])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def end(self, index: int) -> None:
        self.spans[index][2] = self.clock()
        self._stack.pop()

    def _traced(self, fn, name, before=None, after=None):
        @wraps(fn)
        def traced(*args, **kwargs):
            state = before(*args, **kwargs) if before else None
            index = self.begin(name(*args) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end(index)
            if after is not None:
                after(state, result, *args, **kwargs)
            return result
        return traced

    def wrap(self, owner, attr: str, name, *, before=None,
             after=None) -> None:
        """Trace ``owner.attr``.

        A class attribute is replaced once.  A module-level function is
        replaced in every loaded ``repro`` module that imported it by
        name, so ``from x import f`` call sites are traced too.
        """
        original = getattr(owner, attr)
        traced = self._traced(original, name, before, after)
        if isinstance(owner, type):
            targets = [owner]
        else:
            targets = [module for key, module in list(sys.modules.items())
                       if key.split(".")[0] == "repro"
                       and getattr(module, attr, None) is original]
        for target in targets:
            setattr(target, attr, traced)
            self._undo.append((target, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    # -- the layer map -----------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's entry points (the table in README.md)."""
        from repro.apps.dsb.runner import DsbRunner
        from repro.apps.kvstore.server import KvServer
        from repro.cluster.sim import ClusterSim
        from repro.cxl.e2e_sim import CxlEndToEndSim, CxlWriteEndToEndSim
        from repro.cxl.link_sim import CreditedLinkSim
        from repro.experiments.registry import Experiment, ExperimentResult
        from repro.memo import pointer_chase, traffic
        from repro.obs import ledger
        from repro.parallel.cache import ResultCache
        from repro.parallel.runner import ParallelRunner
        from repro.perfmodel.latency import LatencyModel
        from repro.perfmodel.throughput import ThroughputModel
        from repro.resilience.checkpoint import CheckpointJournal
        from repro.resilience.supervisor import SupervisedRunner
        from repro.sim.engine import Engine

        counts = self.counts

        def events_before(engine, *args, **kwargs):
            return engine.events_processed

        def events_after(before, result, engine, *args, **kwargs):
            counts["sim.events"] += engine.events_processed - before

        for attr in ("run", "step_until"):
            self.wrap(Engine, attr, "sim.engine", before=events_before,
                      after=events_after)

        def e2e_after(lines_key):
            # The e2e sims drive the DRAM bank model once per line;
            # their row hit/miss tallies count those bank accesses.
            def after(state, result, *args, **kwargs):
                counts[lines_key] += result.completed
                counts["mem.bank_accesses"] += \
                    result.row_hits + result.row_misses
            return after

        self.wrap(CxlEndToEndSim, "run", "cxl.read",
                  after=e2e_after("cxl.read_lines"))
        self.wrap(CxlWriteEndToEndSim, "run", "cxl.write",
                  after=e2e_after("cxl.write_lines"))
        self.wrap(CreditedLinkSim, "run", "cxl.link")
        self.wrap(pointer_chase, "simulate_chase", "cache.functional")
        self.wrap(traffic, "measure_stream_traffic", "cache.functional")

        for attr, value in list(vars(LatencyModel).items()):
            if callable(value) and not attr.startswith("_"):
                self.wrap(LatencyModel, attr, "perfmodel")
        for attr in ("bandwidth", "copy_bandwidth", "memcpy_bandwidth",
                     "sweep_threads"):
            self.wrap(ThroughputModel, attr, "perfmodel")

        def kv_after(state, result, *args, **kwargs):
            counts["kv.requests"] += result.requests

        self.wrap(KvServer, "run", "kv.run", after=kv_after)
        self.wrap(KvServer, "_run_fast", "kv.fastpath")
        self.wrap(DsbRunner, "run", "dsb.run")

        def cluster_after(state, result, *args, **kwargs):
            counts["cluster.requests"] += result.requests
            counts["cluster.successes"] += result.successes
            counts["cluster.service_ns"] += \
                result.mean_service_ns * result.requests
            stats = result.resilience
            if stats is not None:
                counts["cluster.retries"] += stats.retries_issued
                counts["cluster.hedges"] += stats.hedges_launched
                counts["cluster.rejected"] += stats.rejected
                counts["cluster.wasted_ns"] += stats.wasted_ns

        self.wrap(ClusterSim, "run", "cluster.run", after=cluster_after)

        def map_after(crosses):
            def after(state, results, runner, fn, specs, *args, **kwargs):
                specs = list(specs)
                counts["parallel.units"] += len(specs)
                if crosses(runner, specs):
                    values = [getattr(r, "value", r) for r in results]
                    counts["parallel.pickled_bytes"] += sum(
                        len(pickle.dumps(item)) for item in specs + values)
            return after

        # ParallelRunner pickles specs and results across its pool;
        # SupervisedRunner forks, so only results cross the pipe (its
        # specs are re-pickled here as an upper bound).
        self.wrap(ParallelRunner, "map", "parallel.map",
                  after=map_after(lambda r, s: r.jobs > 1 and len(s) > 1))
        self.wrap(SupervisedRunner, "map", "parallel.map",
                  after=map_after(lambda r, s: r.jobs > 1
                                  or r.policy.timeout_s is not None))

        def cache_get_after(state, payload, *args, **kwargs):
            counts["parallel.cache_hits" if payload is not None
                   else "parallel.cache_misses"] += 1

        self.wrap(ResultCache, "get", "result_cache.get",
                  after=cache_get_after)
        self.wrap(ResultCache, "put", "result_cache.put")
        self.wrap(CheckpointJournal, "record", "journal.record")
        self.wrap(ledger, "append_record", "ledger.append")
        self.wrap(Experiment, "run",
                  lambda experiment, *a: f"exp.{experiment.experiment_id}")
        self.wrap(ExperimentResult, "render", "exp.render")

    # -- metrics -----------------------------------------------------------

    def _outermost(self, names: set[str]) -> list[list]:
        """Spans in ``names`` with no ancestor in ``names``."""
        spans = self.spans
        found = []
        for span in spans:
            if span[0] not in names:
                continue
            parent = span[3]
            while parent is not None and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent is None:
                found.append(span)
        return found

    def seconds(self, *names: str) -> float:
        return sum(end - start
                   for _, start, end, _ in self._outermost(set(names)))

    def calls(self, *names: str) -> int:
        return len(self._outermost(set(names)))

    def mean(self, name: str, scale: float) -> float:
        calls = self.calls(name)
        return self.seconds(name) * scale / calls if calls else 0.0

    def metrics(self, wall_s: float, experiment_ids) -> dict[str, float]:
        """Per-layer metrics of one traced pass lasting ``wall_s``."""
        c = self.counts
        s = self.seconds

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        sim_s = s("sim.engine")
        read_s, write_s = s("cxl.read"), s("cxl.write")
        kv_s, cluster_s = s("kv.run"), s("cluster.run")
        perf_calls = self.calls("perfmodel")
        metrics = {
            "sim.events": c["sim.events"],
            "sim.run_s": sim_s,
            "sim.events_per_s": ratio(c["sim.events"], sim_s),
            "sim.share": sim_s / wall_s,
            "cxl.read_lines": c["cxl.read_lines"],
            "cxl.read_ns_per_line": ratio(read_s * 1e9,
                                          c["cxl.read_lines"]),
            "cxl.write_lines": c["cxl.write_lines"],
            "cxl.write_ns_per_line": ratio(write_s * 1e9,
                                           c["cxl.write_lines"]),
            "cxl.link_s": s("cxl.link"),
            "cxl.share": s("cxl.read", "cxl.write", "cxl.link") / wall_s,
            "mem.bank_accesses": c["mem.bank_accesses"],
            "cache.functional_s": s("cache.functional"),
            "perfmodel.calls": perf_calls,
            "perfmodel.us_per_call": ratio(s("perfmodel") * 1e6,
                                           perf_calls),
            "perfmodel.share": s("perfmodel") / wall_s,
            "kv.requests": c["kv.requests"],
            "kv.ns_per_request": ratio(kv_s * 1e9, c["kv.requests"]),
            "kv.fastpath_ratio": ratio(self.calls("kv.fastpath"),
                                       self.calls("kv.run")),
            "kv.share": kv_s / wall_s,
            "dsb.calls": self.calls("dsb.run"),
            "dsb.share": s("dsb.run") / wall_s,
            "cluster.requests": c["cluster.requests"],
            "cluster.ns_per_request": ratio(cluster_s * 1e9,
                                            c["cluster.requests"]),
            "cluster.share": cluster_s / wall_s,
            "cluster.goodput_ratio": ratio(c["cluster.successes"],
                                           c["cluster.requests"]),
            "cluster.retries": c["cluster.retries"],
            "cluster.hedges": c["cluster.hedges"],
            "cluster.rejected": c["cluster.rejected"],
            "cluster.wasted_ratio": ratio(c["cluster.wasted_ns"],
                                          c["cluster.service_ns"]),
            "parallel.units": c["parallel.units"],
            "parallel.map_s": s("parallel.map"),
            "parallel.pickled_kb": c["parallel.pickled_bytes"] / 1024,
            "parallel.cache_put_us": self.mean("result_cache.put", 1e6),
            "parallel.cache_get_us": self.mean("result_cache.get", 1e6),
            "parallel.cache_misses": c["parallel.cache_misses"],
            "resilience.journal_record_us": self.mean("journal.record",
                                                      1e6),
            "obs.ledger_append_ms": self.mean("ledger.append", 1e3),
            "exp.render_ms": s("exp.render") * 1e3,
        }
        for eid in experiment_ids:
            metrics[f"exp.{eid}.s"] = s(f"exp.{eid}")
        return metrics

    def trace(self, origin: float) -> dict:
        """The spans as written to ``trace-<workload>.json``: times in
        seconds from ``origin``, plus total self time per span name."""
        totals: defaultdict[str, float] = defaultdict(float)
        for (name, *_), own in zip(self.spans, self_times(self.spans)):
            totals[name] += own
        return {"spans": [[name, start - origin, end - origin, parent]
                          for name, start, end, parent in self.spans],
                "self_s": dict(sorted(totals.items()))}
