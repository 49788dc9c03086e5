"""The repository benchmark: host time of five workloads, end to end
and layer by layer, with the simulated outputs checked against pinned
digests.

Usage::

    python3 perfbench/run.py [--workloads NAME ...] [--repeats N]
        [--seed 7] [--seconds S] [--trace [0|1]] [--out DIR]
    python3 perfbench/run.py --smoke        # tiny sizes, every metric
    python3 perfbench/run.py --pin          # rewrite expected_digests.json

Every pass of every workload runs in a fresh child process
(perfbench/child.py).  Passes go round-robin — pass 1 of each workload,
then pass 2 of each — so drift in host speed hits every workload
alike.  ``--repeats`` sets the minimum number of rounds; ``--seconds``
keeps adding rounds while the next one is predicted to end in time.
``--trace`` adds one traced pass per workload for the per-layer
metrics and writes ``<out>/trace-<workload>.json``.

While a pass runs, a speed probe (child.py) times a fixed piece of
Python every 10 ms and counts the CPU time the hypervisor stole;
``wall_s`` and ``setup_s`` are the host times rescaled to the reference
host speed, and the raw host times and speed are printed beside them
(README.md, "Host speed").

Result-cache, checkpoint and ledger files go to a fresh directory per
pass (``REPRO_CACHE_DIR``, ``REPRO_CHECKPOINT_DIR``,
``REPRO_LEDGER_PATH``), removed at exit, so the tree stays clean.

The table lists every metric with its unit, median, quartiles and
sample count.  With one workload selected the last line is a JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json, or with ``--trace 1`` its
per-layer metrics).  Exit code: 0 when every output matches, 1 when an
operation failed, 2 on bad arguments or a missing ``src/repro``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from child import rescaled

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BENCHMARK = ROOT / "BENCHMARK.json"
DIGESTS = HERE / "expected_digests.json"
DEFAULT_OUT = HERE / "out"
CHILD_TIMEOUT_S = 150
# A traced pass, with the extra runs its ratios need, costs about two
# untraced ones; the time budget reserves room for it.
TRACED_PASS_COST = 2.5
PERCENTILES = (50.0, 90.0, 99.0, 99.9)
TAIL_SAMPLES = 10
HOST_UNITS = {"host_wall_s": "s", "host_setup_s": "s",
              "host_speed": "ratio"}


class BenchError(RuntimeError):
    """A pass could not produce a record (crash, timeout, bad input)."""


# -- statistics --------------------------------------------------------------

def quartiles(values: list[float]) -> tuple[float, float]:
    """First and third quartile, as ``statistics.quantiles(n=4)``."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def tail_percentile(samples: int) -> float | None:
    """The highest percentile that has at least ten samples beyond it,
    or ``None`` when even the median has fewer."""
    fitting = [p for p in PERCENTILES
               if samples * (1 - p / 100) >= TAIL_SAMPLES - 1e-9]
    return max(fitting) if fitting else None


def summarize(values: list[float]) -> dict:
    q1, q3 = quartiles(values)
    summary = {"median": statistics.median(values), "q1": q1, "q3": q3,
               "n": len(values)}
    tail = tail_percentile(len(values))
    if tail is not None and tail > 50.0:
        ordered = sorted(values)
        rank = min(len(ordered) - 1, int(len(ordered) * tail / 100))
        summary[f"p{tail:g}"] = ordered[rank]
    return summary


def end_to_end(record: dict) -> dict[str, float]:
    """One pass's end-to-end metrics, plus the raw host times behind
    them: ``wall_s`` and ``setup_s`` are rescaled to the reference
    host speed by the speed the probe saw during each stretch."""
    return {"wall_s": rescaled(record["work"]),
            "setup_s": rescaled(record["setup"]),
            "peak_rss_mb": record["peak_rss_mb"],
            "host_wall_s": record["work"][0],
            "host_setup_s": record["setup"][0],
            "host_speed": record["work"][1]}


# -- verification ------------------------------------------------------------

def verify(records: list[dict], pinned: dict, use_pinned: bool
           ) -> tuple[int, int, list[str]]:
    """Count operations attempted and failed across ``records``.

    An operation is one output digest or one shape check.  Each is
    compared with its reference: the pinned value when ``use_pinned``
    (the run uses the pinned seed) or when the operation ignores the
    seed; otherwise the first pass of this run, so all repeats must
    agree.  An operation that raised, or has no pinned reference,
    counts as failed.
    """
    attempted = failed = 0
    problems: list[str] = []
    first: dict[str, dict] = {}
    for index, record in enumerate(records):
        for op in record["ops"]:
            name = op["name"]
            if op["error"] is not None:
                attempted += 1
                failed += 1
                last = op["error"].strip().splitlines()[-1]
                problems.append(f"pass {index}: {name} raised: {last}")
                continue
            if use_pinned or not op["seeded"]:
                ref = pinned.get(name)
                if ref is None:
                    attempted += 1
                    failed += 1
                    problems.append(f"pass {index}: {name} has no pinned "
                                    f"digest (run --pin)")
                    continue
            else:
                ref = first.setdefault(name, op)
            checks, want = op["checks"], ref["checks"]
            attempted += 1 + len(checks)
            if op["digest"] != ref["digest"]:
                failed += 1
                problems.append(f"pass {index}: {name} digest "
                                f"{op['digest']} != {ref['digest']}")
            if len(checks) != len(want):
                failed += len(checks)
                problems.append(f"pass {index}: {name} made {len(checks)} "
                                f"shape checks, expected {len(want)}")
                continue
            for position, (got, expected) in enumerate(zip(checks, want)):
                if got != expected:
                    failed += 1
                    problems.append(f"pass {index}: {name} shape check "
                                    f"{position} is {got}, expected "
                                    f"{expected}")
    return attempted, failed, problems


# -- passes ------------------------------------------------------------------

def run_pass(workload: str, *, seed: int, jobs: int, smoke: bool,
             scratch: Path, traced: bool = False,
             trace_out: Path | None = None) -> dict:
    """One pass of ``workload`` in a fresh child process."""
    work = Path(tempfile.mkdtemp(dir=scratch))
    env = dict(os.environ,
               REPRO_CACHE_DIR=str(work / "cache"),
               REPRO_CHECKPOINT_DIR=str(work / "checkpoint"),
               REPRO_LEDGER_PATH=str(work / "runs.jsonl"))
    result = work / "result.json"
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--jobs", str(jobs),
           "--result", str(result)]
    if smoke:
        cmd.append("--smoke")
    if traced:
        cmd += ["--traced", "--trace-out", str(trace_out)]
    # A session of its own, so a timeout or an interrupt can stop the
    # child together with any workers it forked.
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env,
                            stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        _, stderr = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0 or not result.is_file():
        tail = "\n".join(stderr.strip().splitlines()[-15:])
        raise BenchError(f"{workload} pass exited {proc.returncode}:\n"
                         f"{tail}")
    return json.loads(result.read_text())


def measure(workloads: list[str], args, scratch: Path, jobs: int
            ) -> tuple[dict, dict]:
    """Untraced rounds (round-robin), then the traced passes."""
    passes: dict[str, list[dict]] = {wl: [] for wl in workloads}
    start = time.monotonic()
    round_s: list[float] = []
    while True:
        began = time.monotonic()
        for wl in workloads:
            passes[wl].append(run_pass(wl, seed=args.seed, jobs=jobs,
                                       smoke=args.smoke, scratch=scratch))
        round_s.append(time.monotonic() - began)
        if len(round_s) < args.repeats:
            continue
        if args.seconds is None:
            break
        reserve = statistics.median(round_s) * (
            1 + (TRACED_PASS_COST if args.trace else 0))
        if time.monotonic() - start + reserve > args.seconds:
            break
    traced = {}
    if args.trace:
        args.out.mkdir(parents=True, exist_ok=True)
        for wl in workloads:
            traced[wl] = run_pass(
                wl, seed=args.seed, jobs=jobs, smoke=args.smoke,
                scratch=scratch, traced=True,
                trace_out=args.out / f"trace-{wl}.json")
    return passes, traced


# -- reporting ---------------------------------------------------------------

def load_benchmark() -> dict:
    return json.loads(BENCHMARK.read_text())


def cgroup_cpus() -> float | None:
    """The cgroup-v2 CPU quota (``cpu.max``), or ``None`` when unset."""
    try:
        quota, period = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        return None if quota == "max" else int(quota) / int(period)
    except (OSError, ValueError):
        return None


def host_info() -> dict:
    from repro.parallel import effective_cpu_count

    return {"python": platform.python_version(),
            "machine": platform.machine(),
            "cpus": effective_cpu_count(),
            "cgroup_cpus": cgroup_cpus(),
            "host_cpus": os.cpu_count()}


def workload_report(records: list[dict], traced: dict | None,
                    pinned: dict, use_pinned: bool) -> dict:
    """Verification counts, end-to-end summaries and, when traced, the
    per-layer metrics of one workload."""
    checked = records + ([traced] if traced else [])
    attempted, failed, problems = verify(checked, pinned, use_pinned)
    samples = [end_to_end(record) for record in records]
    metrics = {name: summarize([sample[name] for sample in samples])
               for name in samples[0]}
    layers = {}
    if traced:
        layers = dict(traced["layers"])
        layers["trace.overhead_ratio"] = \
            end_to_end(traced)["wall_s"] / metrics["wall_s"]["median"]
    return {"metrics": metrics, "layers": layers, "attempted": attempted,
            "failed": failed, "fail_ratio": failed / attempted,
            "problems": problems}


def print_table(report: dict, units: dict) -> None:
    host = report["host"]
    print(f"perfbench seed={report['seed']} smoke={report['smoke']} "
          f"python={host['python']} cpus={host['cpus']} "
          f"cgroup_cpus={host['cgroup_cpus']} host_cpus={host['host_cpus']}")
    print(f"{'workload':15s} {'metric':32s} {'unit':6s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'n':>3s}")
    for wl, entry in report["workloads"].items():
        for name, s in entry["metrics"].items():
            tail = "".join(f"  {key}={value:.6g}" for key, value in s.items()
                           if key.startswith("p"))
            print(f"{wl:15s} {name:32s} {units[name]:6s} "
                  f"{s['median']:12.6g} {s['q1']:12.6g} {s['q3']:12.6g} "
                  f"{s['n']:3d}{tail}")
        print(f"{wl:15s} {'fail_ratio':32s} {'ratio':6s} "
              f"{entry['fail_ratio']:12.6g}  "
              f"({entry['failed']}/{entry['attempted']} operations)")
        for name, value in sorted(entry["layers"].items()):
            print(f"{wl:15s} {name:32s} {units[name]:6s} {value:12.6g} "
                  f"{'':12s} {'':12s} {1:3d}")
        for problem in entry["problems"]:
            print(f"{wl:15s} FAILED {problem}")


def result_line(entry: dict, bench: dict, traced: bool) -> dict:
    """The JSON summary for one workload, with exactly the metrics that
    BENCHMARK.json declares for this mode."""
    if traced:
        metrics = {m["name"]: {"value": entry["layers"][m["name"]],
                               "unit": m["unit"]}
                   for m in bench["per_layer"]}
    else:
        metrics = {m["name"]: {"value": entry["metrics"][m["name"]]["median"],
                               "unit": m["unit"]}
                   for m in bench["end_to_end"]}
    return {"correct": entry["failed"] == 0,
            "attempted": entry["attempted"], "failed": entry["failed"],
            "metrics": metrics}


# -- pinning -----------------------------------------------------------------

def known_full_mode_failures(ids) -> dict:
    """Shape checks that fail at ``--full`` (the baseline, not noise)."""
    from repro.experiments import REGISTRY

    failures = {}
    for eid in ids:
        result = REGISTRY[eid].run(fast=False)
        failing = [c.claim for c in result.checks if not c.passed]
        if failing:
            failures[eid] = failing
    return failures


def pin(workloads: list[str], scratch: Path) -> int:
    """Run every workload once at the pinned seed, serially, and write
    its digests (both sizes) to expected_digests.json."""
    sys.path.insert(0, str(HERE))
    import workloads as definitions

    pinned = {"seed": definitions.PINNED_SEED}
    for size, smoke in (("bench", False), ("smoke", True)):
        pinned[size] = {}
        for wl in workloads:
            record = run_pass(wl, seed=definitions.PINNED_SEED, jobs=1,
                              smoke=smoke, scratch=scratch)
            errors = [op["name"] for op in record["ops"] if op["error"]]
            if errors:
                raise BenchError(f"{wl}: {errors} raised while pinning")
            pinned[size][wl] = {op["name"]: {"digest": op["digest"],
                                             "checks": op["checks"]}
                                for op in record["ops"]}
            print(f"pinned {size} {wl}: {len(record['ops'])} operations",
                  flush=True)
    ids = [eid for ids in definitions.SERIAL_IDS.values() for eid in ids]
    pinned["known_full_mode_failures"] = known_full_mode_failures(ids)
    DIGESTS.write_text(json.dumps(pinned, indent=2, sort_keys=True) + "\n")
    print(f"wrote {DIGESTS}")
    return 0


# -- entry point -------------------------------------------------------------

def build_parser(names: list[str]) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        description="Host-time benchmark of the simulator: end-to-end "
                    "and per-layer metrics, digest-checked outputs")
    parser.add_argument("--workloads", "--workload", nargs="+",
                        choices=names, default=None, metavar="NAME",
                        help=f"workloads to run (default: all of "
                             f"{', '.join(names)})")
    parser.add_argument("--repeats", type=int, default=None,
                        help="minimum number of rounds (default: 5; 3 "
                             "with --seconds; 1 with --smoke)")
    parser.add_argument("--seed", type=int, default=7,
                        help="traffic seed of the cluster workloads "
                             "(default: 7, the pinned seed)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="keep adding rounds while the next is "
                             "predicted to end within this many seconds")
    parser.add_argument("--trace", type=int, nargs="?", const=1,
                        default=None, choices=[0, 1],
                        help="add one traced pass per workload for the "
                             "per-layer metrics")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for results.json and traces "
                             "(default: perfbench/out)")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one round, traced: exercises "
                             "every workload and metric name")
    parser.add_argument("--pin", action="store_true",
                        help="rewrite expected_digests.json at seed 7")
    return parser


def main(argv: list[str] | None = None) -> int:
    if not (SRC / "repro").is_dir() or not BENCHMARK.is_file():
        print(f"error: {SRC / 'repro'} and {BENCHMARK} are required",
              file=sys.stderr)
        return 2
    bench = load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    args = build_parser(names).parse_args(argv)
    if args.repeats is not None and args.repeats < 1:
        print("error: --repeats must be >= 1", file=sys.stderr)
        return 2
    if args.seconds is not None and args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    if args.repeats is None:
        args.repeats = 1 if args.smoke else 3 if args.seconds else 5
    if args.trace is None:
        args.trace = 1 if args.smoke else 0
    workloads = args.workloads or names

    # Stop through the normal exit path, so run_pass kills its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    sys.path.insert(0, str(SRC))
    host = host_info()
    jobs = min(2, host["cpus"])
    with tempfile.TemporaryDirectory(dir=HERE, prefix=".tmp-") as scratch:
        try:
            if args.pin:
                return pin(workloads, Path(scratch))
            passes, traced = measure(workloads, args, Path(scratch), jobs)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
    digests = json.loads(DIGESTS.read_text())
    pinned = digests["smoke" if args.smoke else "bench"]
    use_pinned = args.seed == digests["seed"]
    report = {"host": host, "seed": args.seed, "smoke": args.smoke,
              "workloads": {wl: workload_report(passes[wl], traced.get(wl),
                                                pinned.get(wl, {}),
                                                use_pinned)
                            for wl in workloads}}
    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "results.json").write_text(
        json.dumps(report, indent=2, sort_keys=True) + "\n")
    units = dict(HOST_UNITS, **{m["name"]: m["unit"] for m in
                                bench["end_to_end"] + bench["per_layer"]})
    print_table(report, units)
    failed = sum(e["failed"] for e in report["workloads"].values())
    if len(workloads) == 1:
        print(json.dumps(result_line(report["workloads"][workloads[0]],
                                     bench, bool(args.trace))))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
