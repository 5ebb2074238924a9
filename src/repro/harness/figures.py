"""Regeneration of the paper's figures.

Each function returns ``{curve label: TimeSeries}`` sampled on a
shared attacker-fraction grid, ready for
:func:`repro.harness.ascii.render_series_table` /
:func:`~repro.harness.ascii.render_chart`, plus crossover extraction
mirroring how the paper reads its figures ("the attacker needs to
control 42% of the system to ensure fewer than 93% of the updates are
delivered").

The ``fast`` profiles shrink rounds and repetitions so the benchmark
suite can regenerate every figure in seconds; the defaults match the
fidelity used for EXPERIMENTS.md.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

from ..bargossip.attacker import AttackKind
from ..bargossip.config import GossipConfig
from ..bargossip.defenses import figure3_variants, with_larger_pushes
from ..bargossip.network import NetworkModel
from ..bargossip.scenario import ExecutionConfig, Scenario
from ..core.metrics import USABILITY_THRESHOLD, TimeSeries
from .parallel import SweepExecutor
from .sweep import sweep_series
from .tasks import GossipSweepTask

__all__ = [
    "DEFAULT_FRACTIONS",
    "FAST_FRACTIONS",
    "GossipSweepTask",
    "attack_curve",
    "figure1",
    "figure2",
    "figure3",
    "crossovers",
]

#: Attacker-fraction grid for full-fidelity figure regeneration.
DEFAULT_FRACTIONS: Tuple[float, ...] = (
    0.01, 0.02, 0.04, 0.06, 0.08, 0.12, 0.15, 0.18, 0.22,
    0.26, 0.30, 0.36, 0.42, 0.48, 0.55, 0.65, 0.75,
)

#: Coarser grid for the benchmark suite.
FAST_FRACTIONS: Tuple[float, ...] = (0.02, 0.04, 0.08, 0.15, 0.22, 0.30, 0.42, 0.55)


def attack_curve(
    config: GossipConfig,
    kind: AttackKind,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    rounds: int = 50,
    repetitions: int = 1,
    root_seed: int = 0,
    label: Optional[str] = None,
    executor: Optional[SweepExecutor] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
    execution: Optional[ExecutionConfig] = None,
) -> TimeSeries:
    """One curve: isolated-node delivery vs attacker fraction.

    ``network``/``schedule`` replay the same attack sweep against an
    asynchronous network (latency, loss, churn) on the event engine;
    ``execution`` decides how cells run; only the partner schedule its
    ``shards`` selects changes results.
    """
    scenario = Scenario(
        config=config,
        network=network if network is not None else NetworkModel.ideal(),
        schedule=schedule,
        kind=kind,
        rounds=rounds,
    )
    return sweep_series(
        label=label or f"{kind.value} attack",
        grid=fractions,
        run_one=GossipSweepTask(
            scenario=scenario,
            execution=execution if execution is not None else ExecutionConfig(),
        ),
        repetitions=repetitions,
        root_seed=root_seed,
        executor=executor,
        experiment=f"attack_curve:{kind.value}",
    )


def figure1(
    config: Optional[GossipConfig] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    rounds: int = 50,
    repetitions: int = 1,
    root_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, TimeSeries]:
    """Figure 1: crash vs ideal vs trade lotus-eater attack.

    Paper crossovers (fraction needed to push isolated delivery below
    93%): crash ~= 0.42, ideal ~= 0.04, trade ~= 0.22.
    """
    config = config if config is not None else GossipConfig.paper()
    return {
        "Crash attack": attack_curve(
            config, AttackKind.CRASH, fractions, rounds, repetitions, root_seed,
            label="Crash attack", executor=executor,
            network=network, schedule=schedule, execution=execution,
        ),
        "Ideal lotus-eater attack": attack_curve(
            config, AttackKind.IDEAL, fractions, rounds, repetitions, root_seed,
            label="Ideal lotus-eater attack", executor=executor,
            network=network, schedule=schedule, execution=execution,
        ),
        "Trade lotus-eater attack": attack_curve(
            config, AttackKind.TRADE, fractions, rounds, repetitions, root_seed,
            label="Trade lotus-eater attack", executor=executor,
            network=network, schedule=schedule, execution=execution,
        ),
    }


def figure2(
    config: Optional[GossipConfig] = None,
    push_size: int = 10,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    rounds: int = 50,
    repetitions: int = 1,
    root_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, TimeSeries]:
    """Figure 2: the same three attacks with a larger optimistic push.

    Paper: with push size 10, the ideal attack "now requires at least
    15% of the nodes" and the trade attack nearly doubles to ~40%.
    """
    config = config if config is not None else GossipConfig.paper()
    return figure1(
        with_larger_pushes(config, push_size),
        fractions=fractions,
        rounds=rounds,
        repetitions=repetitions,
        root_seed=root_seed,
        executor=executor,
        network=network,
        schedule=schedule,
        execution=execution,
    )


def figure3(
    config: Optional[GossipConfig] = None,
    fractions: Sequence[float] = DEFAULT_FRACTIONS,
    rounds: int = 50,
    repetitions: int = 1,
    root_seed: int = 0,
    executor: Optional[SweepExecutor] = None,
    network: Optional[NetworkModel] = None,
    schedule: str = "rounds",
    execution: Optional[ExecutionConfig] = None,
) -> Dict[str, TimeSeries]:
    """Figure 3: trade attack vs push size and exchange-balance defenses.

    Paper: push 4 + unbalanced exchanges together "increase the
    fraction of the system the attacker needs to control by almost
    50%" over push 2 + balanced.
    """
    config = config if config is not None else GossipConfig.paper()
    curves: Dict[str, TimeSeries] = {}
    for name, variant in figure3_variants(config).items():
        curves[name] = attack_curve(
            variant,
            AttackKind.TRADE,
            fractions,
            rounds,
            repetitions,
            root_seed,
            label=name,
            executor=executor,
            network=network,
            schedule=schedule,
            execution=execution,
        )
    return curves


def crossovers(
    curves: Dict[str, TimeSeries], threshold: float = USABILITY_THRESHOLD
) -> Dict[str, Optional[float]]:
    """The attacker fraction at which each curve crosses the threshold."""
    return {label: ts.crossover_below(threshold) for label, ts in curves.items()}
