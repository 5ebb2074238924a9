"""The workload table: one row per workload name.

Each row maps a workload to the :class:`~repro.bargossip.scenario.Scenario`
fields it simulates and the :class:`~repro.bargossip.scenario.ExecutionConfig`
it runs under, plus the benchmark's own knobs (how many set-ups to time,
how many rounds to time at least, how many rounds to trace).  Moving the
partner schedule out of ``ExecutionConfig.shards`` into ``Scenario`` is a
one-row edit here.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any, Dict, Tuple

from repro.bargossip.attacker import AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig, Scenario
from repro.harness.figures import FAST_FRACTIONS

__all__ = [
    "Workload",
    "WORKLOADS",
    "DEFAULT_SEED",
    "HELD_OUT_SEED",
    "SWEEP_JOBS",
    "scenario_of",
]

#: Seed used when ``--seed`` is not given.
DEFAULT_SEED = 1
#: Seed kept out of tuning: a later performance claim must also hold here.
HELD_OUT_SEED = 9001

#: Update lifetime of the Table 1 configuration: the warm-up before timing.
WARMUP_ROUNDS = GossipConfig.paper().update_lifetime
#: Fewest rounds a simulation times: ``round_ms_tail`` needs ten rounds
#: beyond its percentile.
MIN_TIMED_ROUNDS = 12
#: Rounds of the correctness replays: two lifetimes and two rounds, so
#: updates created after the warm-up expire and are scored.
CHECK_ROUNDS = 22

#: Worker processes of the figure sweep (capped at the CPU count).
SWEEP_JOBS = 2
#: Seconds of timed work one whole figure sweep stands for; a run makes
#: ``round(seconds / SWEEP_SECONDS)`` sweeps, at least one.
SWEEP_SECONDS = 20.0

#: The network of the harshest event-bench point: 0.3-round exponential
#: latency, 5% loss, churn at 0.002 leave and 0.05 join per node-round.
CHURNED_NETWORK = NetworkModel(
    latency_kind="exponential",
    latency_mean=0.3,
    loss_rate=0.05,
    churn_leave_rate=0.002,
    churn_join_rate=0.05,
)


@dataclass(frozen=True)
class Workload:
    """One benchmark workload.

    ``kind`` is ``"sweep"`` (the figure 1/2/3 sweep through the
    executor) or ``"simulation"`` (one long-running simulator).
    ``scenario`` holds :class:`Scenario` fields, with ``n_nodes``
    standing for ``config.n_nodes``; ``execution`` holds
    :class:`ExecutionConfig` fields.
    """

    kind: str
    scenario: Dict[str, Any]
    execution: Dict[str, Any]
    #: Set-ups timed per run; ``setup_s`` is their median.
    setups: int = 3
    #: Simulations: nominal rounds per second on the reference host.  A
    #: run times ``round(seconds * rounds_per_second)`` rounds, so its
    #: work depends on ``--seconds`` only, never on the host's speed.
    rounds_per_second: float = 1.0
    #: Simulations: traced rounds in ``--trace 1`` (interleaved with as
    #: many untraced rounds); fixed so traced counts repeat exactly.
    traced_rounds: int = 6
    #: Simulations: node count of the correctness replays.
    check_nodes: int = 2000
    #: Sweep: attacker-fraction grid.
    fractions: Tuple[float, ...] = field(default=FAST_FRACTIONS)

    def execution_config(self) -> ExecutionConfig:
        return ExecutionConfig(**self.execution)

    def timed_rounds(self, seconds: float) -> int:
        return max(MIN_TIMED_ROUNDS, round(seconds * self.rounds_per_second))

    def sweeps(self, seconds: float) -> int:
        return max(1, round(seconds / SWEEP_SECONDS))

    def with_changes(self, **changes: Any) -> "Workload":
        return replace(self, **changes)


def scenario_of(fields: Dict[str, Any]) -> Scenario:
    """Build a :class:`Scenario` from a row's field dictionary."""
    fields = dict(fields)
    config = GossipConfig.paper().replace(n_nodes=fields.pop("n_nodes", 250))
    return Scenario(config=config, **fields)


_TRADE_POINT = {"kind": AttackKind.TRADE, "attacker_fraction": 0.2}

WORKLOADS: Dict[str, Workload] = {
    "fig-sweep": Workload(
        kind="sweep",
        scenario={"n_nodes": 250, "rounds": 30},
        execution={},
        setups=15,
    ),
    "classic-20k": Workload(
        kind="simulation",
        scenario={"n_nodes": 20_000, **_TRADE_POINT},
        execution={"backend": "words", "shards": 0},
        setups=9,
        rounds_per_second=1.6,
        traced_rounds=8,
    ),
    # The cell schedule with its state above the L3, at a run cost the
    # benchmark's time budget carries (``cells-1m`` does not fit it).
    "cells-250k": Workload(
        kind="simulation",
        scenario={"n_nodes": 250_000, **_TRADE_POINT},
        execution={"backend": "words", "shards": 1},
        rounds_per_second=1.6,
        setups=3,
        traced_rounds=6,
    ),
    "cells-1m": Workload(
        kind="simulation",
        scenario={"n_nodes": 1_000_000, **_TRADE_POINT},
        execution={"backend": "words", "shards": 1},
        rounds_per_second=0.4,
        # One construction per run: a second costs ~7 s, which the
        # run-time budget cannot carry; the median over runs stands in.
        setups=1,
        traced_rounds=5,
    ),
    "event-20k-churn": Workload(
        kind="simulation",
        scenario={
            "n_nodes": 20_000,
            "network": CHURNED_NETWORK,
            "schedule": "event",
            **_TRADE_POINT,
        },
        execution={"backend": "words"},
        setups=9,
        rounds_per_second=0.9,
        traced_rounds=6,
    ),
}
