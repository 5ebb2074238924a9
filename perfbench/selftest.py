#!/usr/bin/env python3
"""Self-test of the benchmark at toy sizes (about a minute).

    python3 perfbench/selftest.py

Runs every workload of the table shrunk to toy size (500 nodes, a
three-point sweep grid, few rounds), untraced and traced, and checks
that each run is correct and emits every metric of ``BENCHMARK.json``
with its declared unit.  It then perturbs one aggregate of a simulation
replay and one point of the sweep, and makes one sweep cell raise once
(the executor's retry then succeeds), and checks that each is counted
as a failed operation.  Exits 1 on the first broken expectation.
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from run import NOT_EXERCISED, _declared, _import_program, run_one  # noqa: E402

_import_program()

import perfbench.figsweep as figsweep  # noqa: E402

TOY_SEED = 3
#: The toy sweep grid; ``FlakyTask`` fails once at its middle point.
TOY_FRACTIONS = (0.02, 0.3, 0.55)


class FlakyTask(figsweep.MeteredTask):
    """A metered sweep task whose first attempt at one cell raises.

    The first attempt anywhere at the middle toy fraction claims a
    token file in the cell log directory, logs a failed attempt and
    raises; every later attempt runs normally.
    """

    def __call__(self, fraction, seed):
        if fraction == TOY_FRACTIONS[1]:
            token = os.path.join(os.environ[figsweep.CELL_LOG_ENV], "flaky.token")
            try:
                os.close(os.open(token, os.O_CREAT | os.O_EXCL))
            except FileExistsError:
                pass
            else:
                self._log(fraction, seed, False, 0.0)
                raise RuntimeError("selftest: injected cell failure")
        return super().__call__(fraction, seed)


def _toy(workload):
    if workload.kind == "sweep":
        return workload.with_changes(
            scenario={**workload.scenario, "rounds": 22},
            fractions=TOY_FRACTIONS,
            setups=2,
        )
    return workload.with_changes(
        scenario={**workload.scenario, "n_nodes": 500},
        setups=2,
        traced_rounds=2,
        check_nodes=300,
    )


def _expect(condition: bool, message: str) -> None:
    if not condition:
        print(f"selftest FAILED: {message}")
        sys.exit(1)


def _check_emission(name, workload, trace: bool, result) -> None:
    _, declared = _declared(trace)
    skipped = NOT_EXERCISED.get(workload.kind, ())
    for entry in declared:
        metric = entry["name"]
        _expect(metric in result["metrics"], f"{name} trace={trace}: {metric} missing")
        emitted = result["metrics"][metric]
        _expect(emitted["unit"] == entry["unit"], f"{name}: {metric} unit {emitted['unit']}")
        _expect(
            isinstance(emitted["value"], (int, float)),
            f"{name}: {metric} value {emitted['value']!r} is not a number",
        )
        if not trace or not metric.startswith(skipped):
            continue
        _expect(emitted["value"] == 0, f"{name}: unexercised {metric} reads nonzero")


def main() -> int:
    from perfbench.workloads import WORKLOADS

    for name, row in WORKLOADS.items():
        toy = _toy(row)
        for trace in (False, True):
            info, result = run_one(name, TOY_SEED, 0.0, trace, workload=toy)
            _expect(
                result["correct"] and result["failed"] == 0,
                f"{name} trace={trace} not correct: {info['details']} {info['problems']}",
            )
            _expect(result["attempted"] >= 1, f"{name}: nothing attempted")
            _check_emission(name, toy, trace, result)
            print(f"ok  {name:16s} trace={int(trace)} attempted={result['attempted']}")

    def bump_counters(aggregates):
        return {**aggregates, "counter_sum": aggregates["counter_sum"] + 1}

    def bump_trade_point(curves):
        series = curves["figure1"]["Trade lotus-eater attack"]
        series.ys[len(series.ys) // 2] += 1e-9
        return curves

    for name, perturb in (("classic-20k", bump_counters), ("fig-sweep", bump_trade_point)):
        _, result = run_one(name, TOY_SEED, 0.0, False, workload=_toy(WORKLOADS[name]),
                            perturb=perturb)
        _expect(
            result["failed"] >= 1 and not result["correct"],
            f"{name}: a perturbed aggregate was not counted as failed",
        )
        print(f"ok  {name:16s} perturbed aggregate counted failed={result['failed']}")

    original = figsweep.MeteredTask
    figsweep.MeteredTask = FlakyTask
    try:
        toy = _toy(WORKLOADS["fig-sweep"])
        _, result = run_one("fig-sweep", TOY_SEED, 0.0, False, workload=toy)
    finally:
        figsweep.MeteredTask = original
    _expect(
        result["failed"] >= 1 and not result["correct"],
        "fig-sweep: a cell that raised once and then succeeded was not counted as failed",
    )
    print(f"ok  {'fig-sweep':16s} retried raising cell counted failed={result['failed']}")
    print("selftest ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())
