"""The figure-sweep workload: figures 1, 2 and 3 through the sweep executor.

The sweep runs the users' regeneration path -- ``figure1`` / ``figure2``
/ ``figure3`` over a :class:`~repro.harness.parallel.SweepExecutor`,
uncached -- with one seam: ``repro.harness.figures.GossipSweepTask`` is
swapped for :class:`MeteredTask`, which returns the same value and
appends every attempt at a cell -- its outcome and wall time -- to a
per-process log, so per-cell times and failures come back from the
worker processes.  A cell is a failed operation if any attempt at it
raised, or if no attempt at it finished; executor retries hide neither.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import repro.bargossip.simulator as simulator_module
import repro.harness.figures as figures_module
from repro.bargossip.attacker import AttackKind
from repro.core.metrics import TimeSeries
from repro.core.rng import spawn_seeds
from repro.harness.figures import attack_curve, crossovers, figure1, figure2, figure3
from repro.harness.parallel import SweepExecutor
from repro.harness.tasks import GossipSweepTask

from .host import median, peak_rss_mb, resident_bytes, tail
from .simulations import build
from .tracing import (
    Tracer,
    deterministic_counts,
    layer_metrics,
    setup_metrics,
    store_metrics,
    traced_simulator_class,
)
from .workloads import SWEEP_JOBS, Workload, scenario_of

__all__ = ["MeteredTask", "run_sweep", "trace_sweep"]

#: Environment variable naming the directory cells log their times to
#: (inherited by the executor's workers under any start method).
CELL_LOG_ENV = "PERFBENCH_CELL_LOG"

Curves = Dict[str, Dict[str, TimeSeries]]


class MeteredTask(GossipSweepTask):
    """A :class:`GossipSweepTask` that logs every attempt at its cells.

    Each record names the cell by the task's fingerprint, the fraction
    and the seed, and holds whether the attempt returned and its wall
    time.  An attempt that raises is logged, then re-raised.
    """

    def __call__(self, fraction: float, seed: int) -> Optional[float]:
        start = perf_counter()
        ok = False
        try:
            value = super().__call__(fraction, seed)
            ok = True
            return value
        finally:
            self._log(fraction, seed, ok, perf_counter() - start)

    def _log(self, fraction: float, seed: int, ok: bool, elapsed: float) -> None:
        log_dir = os.environ.get(CELL_LOG_ENV)
        if not log_dir:
            return
        task = json.dumps(self.cache_fingerprint(), sort_keys=True, default=str)
        record = {
            "cell": [hashlib.sha1(task.encode()).hexdigest()[:16], fraction, seed],
            "ok": ok,
            "cell_s": elapsed,
            "rounds": self.scenario.rounds,
        }
        with open(os.path.join(log_dir, f"{os.getpid()}.jsonl"), "a") as handle:
            handle.write(json.dumps(record) + "\n")


class CellLedger:
    """The cells finished and the operations failed, settled in batches.

    ``drain`` returns the cell records logged since its last call.  A
    batch must not hold the same cell twice: figure 3's first curve is
    figure 1's trade curve, so each figure is its own batch.
    """

    def __init__(self, drain: Callable[[], List[dict]]) -> None:
        self._drain = drain
        #: The first successful record of each settled cell.
        self.cells: List[dict] = []
        #: Attempts that raised, plus expected cells no attempt finished.
        self.failed = 0
        #: Cells expected over all settled batches.
        self.expected = 0

    def settle(self, expected: int) -> None:
        """Account the records of a batch of ``expected`` distinct cells.

        A lost worker logs nothing, so its cell counts as unfinished; a
        cell that finished twice -- its worker was lost after logging --
        counts once.
        """
        done: Dict[Tuple, dict] = {}
        for record in self._drain():
            if record["ok"]:
                done.setdefault(tuple(record["cell"]), record)
            else:
                self.failed += 1
        self.cells += done.values()
        self.failed += abs(expected - len(done))
        self.expected += expected


@contextmanager
def _patched(module, name: str, value) -> Iterator[None]:
    original = getattr(module, name)
    setattr(module, name, value)
    try:
        yield
    finally:
        setattr(module, name, original)


@contextmanager
def _metered_cells(root: str, label: str) -> Iterator[CellLedger]:
    """Sweep tasks metered into a fresh cell log inside the checkout.

    Yields the ledger that accounts the log; the log directory is
    removed afterwards.
    """
    log_dir = os.path.join(root, ".perfbench", f"{label}-{os.getpid()}")
    shutil.rmtree(log_dir, ignore_errors=True)
    os.makedirs(log_dir)
    previous = os.environ.get(CELL_LOG_ENV)
    os.environ[CELL_LOG_ENV] = log_dir

    def drain() -> List[dict]:
        records = []
        for name in sorted(os.listdir(log_dir)):
            if not name.endswith(".jsonl"):
                continue
            path = os.path.join(log_dir, name)
            with open(path) as handle:
                records.extend(json.loads(line) for line in handle if line.strip())
            os.remove(path)
        return records

    try:
        with _patched(figures_module, "GossipSweepTask", MeteredTask):
            yield CellLedger(drain)
    finally:
        if previous is None:
            del os.environ[CELL_LOG_ENV]
        else:
            os.environ[CELL_LOG_ENV] = previous
        shutil.rmtree(log_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(log_dir))
        except OSError:
            pass


#: The figures of the sweep and their curve counts: three attacks in
#: figures 1 and 2, four defense variants in figure 3.
_FIGURES = (("figure1", figure1, 3), ("figure2", figure2, 3), ("figure3", figure3, 4))


def _sweep(
    workload: Workload, seed: int, executor: SweepExecutor, ledger: CellLedger
) -> Curves:
    """Figures 1-3 on the workload's grid, each settled in ``ledger``."""
    scenario = scenario_of(workload.scenario)
    kwargs = dict(
        fractions=workload.fractions,
        rounds=scenario.rounds,
        root_seed=seed,
        executor=executor,
        execution=workload.execution_config(),
    )
    curves = {}
    for name, builder, curve_count in _FIGURES:
        try:
            curves[name] = builder(scenario.config, **kwargs)
        finally:
            ledger.settle(curve_count * len(workload.fractions))
    return curves


def _expected_cells(workload: Workload) -> int:
    return sum(count for _, _, count in _FIGURES) * len(workload.fractions)


def _crossover_order_ok(curves: Curves) -> bool:
    """Figure 1's crossovers keep the paper's order ideal < trade < crash.

    A crash curve that never crosses on the grid counts as beyond it.
    """
    cross = crossovers(curves["figure1"])
    ideal = cross["Ideal lotus-eater attack"]
    trade = cross["Trade lotus-eater attack"]
    crash = cross["Crash attack"]
    if ideal is None or trade is None:
        return False
    return ideal < trade and (crash is None or trade < crash)


def _probe_cell(workload: Workload, seed: int, curves: Curves) -> Tuple[float, bool]:
    """Replay one figure-1 trade cell in-process.

    Returns its resident bytes per node (RSS after the cell's rounds
    minus RSS before construction) and whether its delivery equals the
    sweep's point for that cell.
    """
    x = float(workload.fractions[len(workload.fractions) // 2])
    cell_seed = spawn_seeds(seed, 1, label=f"sweep:{x}")[0]
    scenario = scenario_of(
        {**workload.scenario, "kind": AttackKind.TRADE, "attacker_fraction": x}
    )
    before = resident_bytes()
    with build(scenario, workload.execution_config(), cell_seed) as sim:
        for _ in range(scenario.rounds):
            sim.step()
        resident = (resident_bytes() - before) / scenario.config.n_nodes
        value = sim.delivery_fraction("isolated")
    swept = dict(curves["figure1"]["Trade lotus-eater attack"].points()).get(x)
    return resident, value == swept


def _executor_sweep(
    workload: Workload, seed: int, root: str, sweeps_wanted: int = 1
) -> Dict[str, object]:
    """Time executor set-up, then ``sweeps_wanted`` whole sweeps.

    Returns the set-up times, one ``(wall seconds, curves)`` pair per
    sweep -- curves None for a sweep that raised, which ends the run;
    its figures that never ran count as failed cells -- and the cells
    finished over all sweeps and their failed operations.
    """
    jobs = max(1, min(SWEEP_JOBS, os.cpu_count() or 1))
    setups: List[float] = []
    sweeps: List[Tuple[float, Optional[Curves]]] = []
    executor = None
    with _metered_cells(root, "sweep") as ledger:
        try:
            for index in range(workload.setups):
                start = perf_counter()
                executor = SweepExecutor(jobs=jobs)
                executor.warm_up()
                setups.append(perf_counter() - start)
                if index < workload.setups - 1:
                    executor.close()
            while len(sweeps) < sweeps_wanted:
                start = perf_counter()
                try:
                    curves = _sweep(workload, seed, executor, ledger)
                except Exception as exc:  # noqa: BLE001 - counted as failed cells
                    print(f"[perfbench] sweep raised: {exc!r}", flush=True)
                    curves = None
                sweeps.append((perf_counter() - start, curves))
                if curves is None:
                    ledger.failed += _expected_cells(workload) * len(sweeps) - ledger.expected
                    break
        finally:
            if executor is not None:
                executor.close()
    return {
        "jobs": jobs,
        "setups": setups,
        "sweeps": sweeps,
        "cells": ledger.cells,
        "failed": ledger.failed,
    }


def run_sweep(
    workload: Workload, seed: int, seconds: float, root: str, perturb=None
) -> Dict[str, object]:
    """The untraced run: end-to-end metrics of whole figure sweeps.

    The run makes ``workload.sweeps(seconds)`` sweeps, and every repeat
    must give the same curves.
    """
    swept = _executor_sweep(workload, seed, root, workload.sweeps(seconds))
    sweeps, cells = swept["sweeps"], swept["cells"]
    expected = _expected_cells(workload) * len(sweeps)
    failed_cells = swept["failed"]
    info: Dict[str, object] = {"jobs": swept["jobs"], "sweeps": len(sweeps), "cells": len(cells)}
    metrics: Dict[str, Tuple[float, str]] = {}
    check_ok = False
    curves = sweeps[0][1]
    if failed_cells == 0:
        repeat_ok = all(other == curves for _, other in sweeps[1:])
        if perturb is not None:
            curves = perturb(curves)
        resident, probe_ok = _probe_cell(workload, seed, curves)
        order_ok = _crossover_order_ok(curves)
        check_ok = repeat_ok and probe_ok and order_ok
        info["check"] = {
            "crossover_order": order_ok,
            "probe_cell_match": probe_ok,
            "repeats_match": repeat_ok,
        }
        per_round = [cell["cell_s"] * 1000.0 / cell["rounds"] for cell in cells]
        tail_ms, percentile = tail(per_round)
        info.update(tail_percentile=percentile, setups=len(swept["setups"]))
        metrics = {
            "setup_s": (median(swept["setups"]), "s"),
            "round_ms": (median(per_round), "ms"),
            "round_ms_tail": (tail_ms, "ms"),
            "sweep_s": (median([wall for wall, _ in sweeps]), "s"),
            "resident_bytes_per_node": (resident, "B/node"),
            "peak_rss_mb": (peak_rss_mb(include_children=True), "MB"),
        }
    return {
        "attempted": expected + 1,
        "failed": failed_cells + (not check_ok),
        "metrics": metrics,
        "info": info,
    }


def _replay(run, root: str, traced: bool = True):
    """Run ``run(executor, ledger)`` serially in-process, traced or not.

    Returns ``(result, tracer, simulators built, cells finished,
    failed operations)``.
    """
    tracer = Tracer()
    built: List = []
    simulator_class = (
        traced_simulator_class(tracer, built) if traced else simulator_module.GossipSimulator
    )
    with _metered_cells(root, "replay") as ledger, _patched(
        simulator_module, "GossipSimulator", simulator_class
    ):
        result = run(SweepExecutor(jobs=1), ledger)
    return result, tracer, built, ledger.cells, ledger.failed


def trace_sweep(workload: Workload, seed: int, root: str, perturb=None) -> Dict[str, object]:
    """The traced run: executor metrics plus an in-process traced replay.

    The executor sweep gives the ``parallel.*`` / ``sweep.*`` numbers;
    the same cells then replay serially in this process with every
    round traced, and their curves must equal the executor's.  The
    figure-1 trade curve replays twice more traced and once untraced:
    its counts must repeat exactly, and its cell times give the
    tracing overhead.
    """
    swept = _executor_sweep(workload, seed, root)
    expected = _expected_cells(workload)
    trade_cells = len(workload.fractions)
    cells = swept["cells"]
    [(sweep_s, curves)] = swept["sweeps"]
    # The executor's cells, the replay's, three trade-curve replays and
    # three checks.
    attempted = 2 * expected + 3 * trade_cells + 3
    if curves is None:
        return {"attempted": attempted, "failed": swept["failed"],
                "metrics": {}, "info": {"cells": len(cells)}}
    replayed, tracer, built, _, replay_failed = _replay(
        lambda executor, ledger: _sweep(workload, seed, executor, ledger), root
    )
    if perturb is not None:
        replayed = perturb(replayed)
    scenario = scenario_of(workload.scenario)

    def trade_curve(executor, ledger):
        try:
            return attack_curve(
                scenario.config,
                AttackKind.TRADE,
                workload.fractions,
                scenario.rounds,
                root_seed=seed,
                executor=executor,
                execution=workload.execution_config(),
            )
        finally:
            ledger.settle(trade_cells)

    # The figure-1 trade curve twice traced and once untraced: the
    # counts must repeat, and the cell times give the tracing overhead.
    trade = [_replay(trade_curve, root, traced) for traced in (True, True, False)]
    replay_failed += sum(run[4] for run in trade)
    traced_cell_s = sum(cell["cell_s"] for run in trade[:2] for cell in run[3]) / 2
    plain_cell_s = sum(cell["cell_s"] for cell in trade[2][3])
    counts_repeat = deterministic_counts(trade[0][1]) == deterministic_counts(trade[1][1])
    no_feedback = replayed == curves and all(run[0] == trade[2][0] for run in trade[:2])
    order_ok = _crossover_order_ok(curves)
    cell_s = [cell["cell_s"] for cell in cells]
    metrics = dict(layer_metrics(tracer))
    metrics.update(setup_metrics(built))
    metrics.update(store_metrics(built[-1]))
    metrics.update(
        {
            "parallel.cells": (len(cells), "count"),
            "parallel.cells_failed": (swept["failed"], "count"),
            "parallel.spawn_s": (median(swept["setups"]), "s"),
            "parallel.efficiency": (
                sum(cell_s) / (swept["jobs"] * sweep_s), "ratio"
            ),
            "sweep.cell_s_median": (median(cell_s), "s"),
            "sweep.cell_s_max": (max(cell_s), "s"),
            "trace.overhead_ratio": (traced_cell_s / plain_cell_s, "ratio"),
        }
    )
    return {
        "attempted": attempted,
        "failed": swept["failed"]
        + replay_failed
        + (not no_feedback)
        + (not counts_repeat)
        + (not order_ok),
        "metrics": metrics,
        "info": {
            "jobs": swept["jobs"],
            "check": {
                "crossover_order": order_ok,
                "trace_no_feedback": no_feedback,
                "trace_counts_repeat": counts_repeat,
            },
        },
    }
