"""The simulation workloads: set-up, warm-up, timed rounds, checks.

A simulation workload builds one :class:`GossipSimulator` exactly as
:func:`repro.bargossip.scenario.run_experiment` does and drives
``step()`` itself, so every round can be timed.  The load is a closed,
single-process batch: each round starts when the previous one ends.
"""

from __future__ import annotations

import gc
import sys
import traceback
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

from repro.bargossip.attacker import AttackerCoalition
from repro.bargossip.scenario import ExecutionConfig, Scenario
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams

from .host import median, peak_rss_mb, resident_bytes, tail
from .tracing import (
    TracedSimulator,
    Tracer,
    deterministic_counts,
    layer_metrics,
    setup_metrics,
    store_metrics,
)
from .workloads import CHECK_ROUNDS, WARMUP_ROUNDS, Workload, scenario_of

__all__ = ["run_simulation", "trace_simulation", "check_replays"]

Aggregates = Dict[str, object]


def build(
    scenario: Scenario,
    execution: ExecutionConfig,
    seed: int,
    cls=GossipSimulator,
    **extra,
) -> GossipSimulator:
    """A simulator for ``scenario`` with ``run_experiment``'s coalition draw."""
    coalition = AttackerCoalition.build(
        scenario.kind,
        n_nodes=scenario.config.n_nodes,
        attacker_fraction=scenario.attacker_fraction,
        rng=RngStreams(seed).get("coalition"),
        satiate_fraction=scenario.satiate_fraction,
    )
    return cls(
        scenario.config,
        attack=coalition,
        seed=seed,
        reporting=scenario.reporting,
        rotate_targets_every=scenario.rotate_targets_every,
        execution=execution,
        network=scenario.network,
        schedule=scenario.schedule,
        **extra,
    )


def aggregates(sim: GossipSimulator) -> Aggregates:
    """What the correctness replays compare: delivery, counters, dumps."""
    return {
        "correct_fraction": sim.delivery_fraction("correct"),
        "isolated_fraction": sim.delivery_fraction("isolated"),
        "counter_sum": int(sim.population.counters.sum()),
        "updates_served": sim.attack.updates_served,
    }


def replay(
    scenario: Scenario, execution: ExecutionConfig, seed: int, cls=GossipSimulator, **extra
) -> Aggregates:
    """Run ``scenario.rounds`` rounds and return the aggregates."""
    with build(scenario, execution, seed, cls=cls, **extra) as sim:
        for _ in range(scenario.rounds):
            sim.step()
        return aggregates(sim)


def _report_failure(what: str) -> None:
    print(f"[perfbench] {what} raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


def check_replays(
    workload: Workload,
    seed: int,
    perturb: Optional[Callable[[Aggregates], Aggregates]] = None,
    traced: bool = False,
) -> Tuple[int, int, Dict[str, object]]:
    """The correctness replays at ``workload.check_nodes`` nodes.

    The scenario and seed replay for ``CHECK_ROUNDS`` rounds on the
    ``sets`` oracle and on the workload's own execution; delivery,
    counter sum and attacker dumps must be identical and a delivery
    must have been measured.  With
    ``traced``, two traced replays of the own execution must also match
    the untraced one (tracing never feeds back) and each other's counts
    (the counts are deterministic).  ``perturb`` alters the own
    replay's aggregates before comparing; the self-test uses it.

    Returns ``(attempted, failed, detail)``.
    """
    small = scenario_of(
        {
            **workload.scenario,
            "n_nodes": workload.check_nodes,
            "rounds": CHECK_ROUNDS,
        }
    )
    execution = workload.execution_config()
    oracle_execution = execution.replace(backend="sets", memory="heap")
    detail: Dict[str, object] = {}
    attempted, failed = 1, 0
    try:
        oracle = replay(small, oracle_execution, seed)
        own = replay(small, execution, seed)
    except Exception:
        _report_failure("correctness replay")
        return attempted, 1, {"oracle_match": False}
    if perturb is not None:
        own = perturb(dict(own))
    detail["oracle"] = oracle
    detail["oracle_match"] = oracle == own and own["correct_fraction"] is not None
    failed += not detail["oracle_match"]
    if traced:
        attempted += 2
        try:
            runs = []
            for _ in range(2):
                tracer = Tracer()
                runs.append(
                    (
                        replay(small, execution, seed, cls=TracedSimulator, tracer=tracer),
                        deterministic_counts(tracer),
                    )
                )
        except Exception:
            _report_failure("traced replay")
            return attempted, failed + 2, detail
        detail["trace_no_feedback"] = all(aggs == own for aggs, _ in runs)
        detail["trace_counts_repeat"] = runs[0][1] == runs[1][1]
        failed += (not detail["trace_no_feedback"]) + (not detail["trace_counts_repeat"])
    return attempted, failed, detail


def _timed_setups(
    scenario: Scenario, execution: ExecutionConfig, seed: int, count: int
) -> List[float]:
    """Construction wall times of ``count`` simulators, built one at a time."""
    times = []
    for _ in range(count):
        start = perf_counter()
        sim = build(scenario, execution, seed)
        times.append(perf_counter() - start)
        sim.close()
        del sim
        gc.collect()
    return times


def run_simulation(
    workload: Workload,
    seed: int,
    seconds: float,
    perturb: Optional[Callable[[Aggregates], Aggregates]] = None,
) -> Dict[str, object]:
    """The untraced run: end-to-end metrics of one simulation workload."""
    scenario = scenario_of(workload.scenario)
    execution = workload.execution_config()
    n_nodes = scenario.config.n_nodes
    attempted = failed = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    info: Dict[str, object] = {}
    sim = None
    rss_before = resident_bytes()
    try:
        start = perf_counter()
        sim = build(scenario, execution, seed)
        setups = [perf_counter() - start]
        batch_start = perf_counter()
        for _ in range(WARMUP_ROUNDS):
            attempted += 1
            sim.step()
        times: List[float] = []
        for _ in range(workload.timed_rounds(seconds)):
            attempted += 1
            start = perf_counter()
            sim.step()
            times.append((perf_counter() - start) * 1000.0)
        batch_s = perf_counter() - batch_start
        resident = (resident_bytes() - rss_before) / n_nodes
        sim.close()
        sim = None
        gc.collect()
        setups += _timed_setups(scenario, execution, seed, workload.setups - 1)
    except Exception:
        _report_failure("simulation round")
        failed += 1
    else:
        tail_ms, percentile = tail(times)
        metrics = {
            "setup_s": (median(setups), "s"),
            "round_ms": (median(times), "ms"),
            "round_ms_tail": (tail_ms, "ms"),
            "sweep_s": (batch_s, "s"),
            "resident_bytes_per_node": (resident, "B/node"),
        }
        info.update(
            timed_rounds=len(times),
            tail_percentile=percentile,
            setups=len(setups),
            warmup_rounds=WARMUP_ROUNDS,
        )
    finally:
        if sim is not None:
            sim.close()
    sim = None
    gc.collect()
    checked, check_failed, detail = check_replays(workload, seed, perturb=perturb)
    attempted += checked
    failed += check_failed
    info["check"] = detail
    if metrics:
        metrics["peak_rss_mb"] = (peak_rss_mb(), "MB")
    return {"attempted": attempted, "failed": failed, "metrics": metrics, "info": info}


def trace_simulation(
    workload: Workload,
    seed: int,
    perturb: Optional[Callable[[Aggregates], Aggregates]] = None,
) -> Dict[str, object]:
    """The traced run: per-layer metrics of one simulation workload.

    After the warm-up lifetime, ``traced_rounds`` traced rounds
    alternate with as many untraced ones on the same simulator; the
    ratio of their medians is the tracing overhead.
    """
    scenario = scenario_of(workload.scenario)
    execution = workload.execution_config()
    tracer = Tracer()
    attempted = failed = 0
    metrics: Dict[str, Tuple[float, str]] = {}
    sim = None
    try:
        sim = build(scenario, execution, seed, cls=TracedSimulator, tracer=tracer)
        sim.tracing = False
        for _ in range(WARMUP_ROUNDS):
            attempted += 1
            sim.step()
        plain: List[float] = []
        for index in range(2 * workload.traced_rounds):
            attempted += 1
            sim.tracing = index % 2 == 0
            start = perf_counter()
            sim.step()
            if not sim.tracing:
                plain.append((perf_counter() - start) * 1000.0)
    except Exception:
        _report_failure("traced round")
        failed += 1
    else:
        metrics.update(layer_metrics(tracer))
        metrics.update(setup_metrics([sim]))
        metrics.update(store_metrics(sim))
        metrics["trace.overhead_ratio"] = (
            median(tracer.round_ms()) / median(plain),
            "ratio",
        )
    finally:
        if sim is not None:
            sim.close()
    sim = None
    gc.collect()
    checked, check_failed, detail = check_replays(
        workload, seed, perturb=perturb, traced=True
    )
    attempted += checked
    failed += check_failed
    return {
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "info": {"check": detail, "traced_rounds": len(tracer.rounds)},
    }
