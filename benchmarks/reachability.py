"""Which functions of ``src/repro`` do the production entry points run?

Runs every production entry point in this one process under
:func:`sys.setprofile`, records each ``src/repro`` function it calls,
and prints, per source file, how many functions it defines and how
many lines their bodies span, and how many of each were never called.
A function no entry point calls is reached only by tests (or by
nothing): it should become a caller's code, move into ``tests/`` as a
reference oracle, or go.

The entry points, run serially in a scratch working directory so the
result cache, ledger and journal start empty:

- ``repro-experiments``: the fast suite with ``--save`` (cold, then
  cached), ``--full``, ``--spans --save`` on the ids that accept spans
  followed by ``python -m repro.telemetry.spans`` on one payload,
  ``--faults`` on the ids that accept faults, ``--resilience`` on the
  ids that accept a policy, ``--scenario pack``, ``--validate``,
  ``--list``, ``--profile``, ``--resume`` and ``--clear-cache``;
- all eight ``memo`` subcommands, ``bw`` and ``random`` also with
  ``--trace --metrics``, ``latency`` also with ``--spans --profile
  --scenario``, and ``replay`` also with ``st+wb`` on a random pattern
  and with ``nt-st``;
- ``repro-report``: plain, ``--write-baseline``, and ``--bench
  --baseline --html`` against the committed baseline;
- every script in ``examples/``;
- the ``cxl-stack`` and ``cluster-policy`` perfbench operations.

Run from the repository root (about 3 minutes on 2 vCPUs)::

    PYTHONPATH=src python benchmarks/reachability.py
    PYTHONPATH=src python benchmarks/reachability.py --list-never

A serial run without failures cannot reach worker-pool, progress,
retry, signal or error-recovery code, so those show up as never called
without being dead.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import os
import runpy
import sys
import tempfile
import threading
import time
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
FAULT_SPEC = "crc=0.01,poison=0.002,seed=7"
SPAN_SPEC = "k=4,windows=4"
RESILIENCE_SPEC = "deadline-ns=60000,retries=2,budget=0.1,hedge=0.95"


def defined_functions() -> dict[tuple[str, int, str], int]:
    """Every function ``src/repro`` defines: ``(path, first line,
    name)`` -> the last line of its body.

    Lambdas, comprehensions, class bodies and module bodies are part of
    the code that holds them and are not counted on their own.
    """
    functions = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        source = path.read_text()
        stack = [compile(source, str(path), "exec")]
        while stack:
            code = stack.pop()
            nested = [const for const in code.co_consts
                      if inspect.iscode(const)]
            stack.extend(nested)
            if (code.co_flags & inspect.CO_OPTIMIZED
                    and not code.co_name.startswith("<")):
                functions[(str(path), code.co_firstlineno,
                           code.co_name)] = _last_line(code)
    return functions


def _last_line(code) -> int:
    lines = [line for _, _, line in code.co_lines() if line is not None]
    for const in code.co_consts:
        if inspect.iscode(const):
            lines.append(_last_line(const))
    return max(lines, default=code.co_firstlineno)


def entry_points() -> list[tuple[str, object]]:
    """``(label, thunk)`` for each entry point; a thunk returns the
    exit code."""
    from repro.experiments import REGISTRY
    from repro.experiments import runner
    from repro.memo import cli as memo
    from repro.obs import report
    from repro.telemetry import spans as spans_cli

    quiet = ["--no-progress"]
    fast = sorted(REGISTRY)
    spans = [eid for eid in fast if REGISTRY[eid].accepts_spans]
    faults = [eid for eid in fast if REGISTRY[eid].accepts_faults]
    resilient = [eid for eid in fast if REGISTRY[eid].accepts_resilience]

    def cli(main, *argv):
        return lambda: main(list(argv))

    points = [
        ("suite --save (cold)", cli(runner.main, *quiet, "--save", "out")),
        ("suite --save (cached)", cli(runner.main, *quiet, "--save", "out")),
        ("--full", cli(runner.main, *quiet, "--full")),
        ("--spans --save", cli(runner.main, *quiet, "--save", "spans",
                               "--spans", SPAN_SPEC, *spans)),
        ("--faults", cli(runner.main, *quiet, "--faults", FAULT_SPEC,
                         *faults)),
        ("--resilience", cli(runner.main, *quiet, "--resilience",
                             RESILIENCE_SPEC, *resilient)),
        ("--scenario pack", cli(runner.main, *quiet, "--scenario", "pack")),
        ("--validate", cli(runner.main, "--validate")),
        ("--list", cli(runner.main, "--list")),
        ("--profile", cli(runner.main, *quiet, "--no-cache", "--profile",
                          "profile", "table1", "fig3")),
        ("--resume", cli(runner.main, *quiet, "--resume", "table1")),
        ("--clear-cache", cli(runner.main, *quiet, "--clear-cache",
                              "table1")),
    ]
    for sub in ("latency", "chase", "bw", "random", "movdir", "dsa",
                "replay", "loaded"):
        points.append((f"memo {sub}", cli(memo.main, sub)))
    for sub in ("bw", "random"):
        points.append((f"memo {sub} --trace --metrics",
                       cli(memo.main, sub, "--trace", f"{sub}.trace.json",
                           "--metrics")))
    points += [
        ("memo latency --spans --profile --scenario",
         cli(memo.main, "latency", "--spans", "--profile", "profile",
             "--scenario", "asic-vs-fpga")),
        ("memo replay --pattern random --kind st+wb",
         cli(memo.main, "replay", "--pattern", "random", "--kind",
             "st+wb")),
        ("memo replay --kind nt-st", cli(memo.main, "replay", "--kind",
                                          "nt-st")),
        ("python -m repro.telemetry.spans",
         cli(spans_cli.main, "spans/cluster-pooling.spans.json")),
        ("repro-report", cli(report.main, "--results", "out", "--out",
                             "report.md")),
        ("repro-report --write-baseline",
         cli(report.main, "--results", "out", "--write-baseline",
             "baseline.json")),
        ("repro-report --bench --baseline --html",
         cli(report.main, "--results", "out", "--bench", str(ROOT),
             "--baseline", str(ROOT / "results" / "report_baseline.json"),
             "--out", "report.md", "--html", "report.html")),
    ]
    for script in sorted((ROOT / "examples").glob("*.py")):
        points.append((f"examples/{script.name}",
                       lambda script=script: _run_script(script)))
    sys.path.insert(0, str(ROOT / "perfbench"))
    import workloads

    for workload in ("cxl-stack", "cluster-policy"):
        for op in workloads.operations(workload, smoke=False, jobs=1):
            points.append((f"perfbench {workload} {op.name}",
                           lambda op=op: op.run() and 0))
    return points


def _run_script(script: Path) -> int:
    runpy.run_path(str(script), run_name="__main__")
    return 0


def trace_calls(build) -> tuple[set, list[tuple[str, object, float]]]:
    """Build the entry points with ``build()`` (importing ``repro``, so
    import-time calls count too), then run each one under the profile
    hook.  Returns the called ``(filename, first line, name)`` keys and
    ``(label, exit code, seconds)`` per step."""
    called_codes = set()

    def hook(frame, event, arg):
        if event == "call":
            called_codes.add(frame.f_code)

    def run(label, thunk):
        start = time.perf_counter()
        sink = io.StringIO()
        threading.setprofile(hook)
        sys.setprofile(hook)
        try:
            with contextlib.redirect_stdout(sink), \
                    contextlib.redirect_stderr(sink):
                code = thunk()
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:            # report and keep counting
            code = f"{type(exc).__name__}: {exc}"
        finally:
            replaced = sys.getprofile() is not hook
            sys.setprofile(None)
            threading.setprofile(None)
        if replaced:
            code = f"{code} (profile hook replaced: calls undercounted)"
        return label, code, time.perf_counter() - start

    points = []
    outcomes = [run("import", lambda: points.extend(build()) or 0)]
    outcomes += [run(label, thunk) for label, thunk in points]
    called = {(os.path.realpath(code.co_filename), code.co_firstlineno,
               code.co_name) for code in called_codes}
    return called, outcomes


def summarize(functions: dict, called: set) -> dict[str, list]:
    """Per file: ``[functions, never called, lines, never-called
    lines, never-called keys]``; lines are counted once per file even
    where never-called functions nest."""
    rows: dict[str, list] = defaultdict(lambda: [0, 0, set(), set(), []])
    for key, last in functions.items():
        path, first, _ = key
        row = rows[path]
        span = set(range(first, last + 1))
        row[0] += 1
        row[2] |= span
        if key not in called:
            row[1] += 1
            row[3] |= span
            row[4].append(key)
    return {path: [row[0], row[1], len(row[2]), len(row[3]),
                   sorted(row[4], key=lambda key: key[1])]
            for path, row in sorted(rows.items())}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--list-never", action="store_true",
                        help="also list every never-called function")
    args = parser.parse_args(argv)

    functions = defined_functions()
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="reachability-") as scratch:
        os.chdir(scratch)
        try:
            called, outcomes = trace_calls(entry_points)
        finally:
            os.chdir(home)

    for label, code, seconds in outcomes:
        print(f"{seconds:7.1f} s  exit {code}  {label}")
    print()
    rows = summarize(functions, called)
    print(f"{'file':48s} {'funcs':>6s} {'never':>6s} {'lines':>6s} "
          f"{'never':>6s}")
    for path, (count, never, lines, never_lines, _) in rows.items():
        if never:
            name = os.path.relpath(path, ROOT)
            print(f"{name:48s} {count:6d} {never:6d} {lines:6d} "
                  f"{never_lines:6d}")
    totals = [sum(row[i] for row in rows.values()) for i in range(4)]
    print(f"{'total':48s} {totals[0]:6d} {totals[1]:6d} {totals[2]:6d} "
          f"{totals[3]:6d}")
    if args.list_never:
        print()
        for path, row in rows.items():
            for _, first, name in row[4]:
                print(f"{os.path.relpath(path, ROOT)}:{first} {name} "
                      f"({functions[(path, first, name)] - first + 1} "
                      f"lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
