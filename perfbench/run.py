#!/usr/bin/env python3
"""Run the repository benchmark.

    python3 perfbench/run.py --workload cells-250k --seed 1 --seconds 20 --trace 0

runs one workload and prints, as its last stdout line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the
end-to-end metrics of ``BENCHMARK.json`` with ``--trace 0``, its
per-layer metrics with ``--trace 1``.  The line before it records the
host fingerprint, the seed and the run's details.  The exit code is 1
when a correctness check failed, 2 when the benchmark cannot run.

Without ``--workload`` every workload of ``BENCHMARK.json`` runs, each
in a fresh process (so ``peak_rss_mb`` is its own), followed by a
table of all metrics.  ``classic-20k`` and ``cells-1m`` are in the
workload table but not in ``BENCHMARK.json``: run them by name.
Run from the repository root; nothing needs building.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: Per-layer metric prefixes a workload kind does not exercise; they
#: read 0 there.  Every other declared metric must be measured.
NOT_EXERCISED = {"simulation": ("parallel.", "sweep.")}


def _fail(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr)
    sys.exit(2)


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path and import from it."""
    if not os.path.isdir(os.path.join(SRC, "repro")):
        _fail(f"no program sources at {SRC}: run from a full checkout")
    sys.path[:0] = [ROOT, SRC]
    try:
        import repro
    except ImportError as exc:
        _fail(f"cannot import the program: {exc}")
    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        _fail(f"imported repro from {repro.__file__}, not from {SRC}")


def _declared(trace: bool):
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as handle:
            spec = json.load(handle)
    except (OSError, ValueError) as exc:
        _fail(f"cannot read {path}: {exc}")
    return spec, spec["per_layer" if trace else "end_to_end"]


def run_one(name: str, seed: int, seconds: float, trace: bool, workload=None, perturb=None):
    """Run one workload in this process; returns ``(info, result)``.

    ``workload`` overrides the table row (the self-test passes toy
    sizes); ``perturb`` alters an aggregate before it is checked.
    """
    from perfbench.figsweep import run_sweep, trace_sweep
    from perfbench.host import fingerprint
    from perfbench.simulations import run_simulation, trace_simulation
    from perfbench.workloads import WORKLOADS

    workload = workload if workload is not None else WORKLOADS[name]
    if workload.kind == "sweep":
        outcome = (
            trace_sweep(workload, seed, ROOT, perturb=perturb)
            if trace
            else run_sweep(workload, seed, seconds, ROOT, perturb=perturb)
        )
    else:
        outcome = (
            trace_simulation(workload, seed, perturb=perturb)
            if trace
            else run_simulation(workload, seed, seconds, perturb=perturb)
        )
    _, declared = _declared(trace)
    measured = outcome["metrics"]
    metrics = {}
    problems = []
    for entry in declared:
        metric, unit = entry["name"], entry["unit"]
        if metric in measured:
            value, measured_unit = measured[metric]
            if measured_unit != unit:
                problems.append(f"{metric}: unit {measured_unit} != declared {unit}")
        elif measured and metric.startswith(NOT_EXERCISED.get(workload.kind, ())):
            value = 0
        else:
            problems.append(f"{metric}: not measured")
            continue
        metrics[metric] = {"value": value, "unit": unit}
    failed = outcome["failed"]
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "host": fingerprint(ROOT),
        "details": outcome["info"],
        "problems": problems,
    }
    result = {
        "correct": failed == 0 and not problems,
        "attempted": outcome["attempted"],
        "failed": failed,
        "metrics": metrics,
    }
    return info, result


def _run_all(args) -> int:
    """Every workload of ``BENCHMARK.json`` in its own process, then one table."""
    spec, _ = _declared(bool(args.trace))
    status = 0
    rows = []
    for name in (workload["name"] for workload in spec["workloads"]):
        command = [
            sys.executable, os.path.abspath(__file__), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace),
        ]
        completed = subprocess.run(command, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        lines = completed.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, ValueError):
            print(f"{name}: no result (exit {completed.returncode})")
            status = 1
            continue
        print(lines[-2] if len(lines) > 1 else "")
        status = status or completed.returncode or (not result["correct"])
        rows.append((name, result))
    for name, result in rows:
        print(f"\n{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:32s} {entry['value']:>14.6g} {entry['unit']}")
    return 1 if status else 0


def main(argv=None) -> int:
    _import_program()
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload (default: all, one process each)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED})")
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how much timed work a run does (default 20)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: the traced run with the per-layer metrics")
    args = parser.parse_args(argv)
    if args.workload is None:
        return _run_all(args)
    info, result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(info, default=str))
    print(json.dumps(result))
    sys.stdout.flush()
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
