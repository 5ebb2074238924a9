"""Golden traces of the event schedule under non-ideal networks.

The schedule-parity suite pins the event schedule to the classic rounds
schedule, but only under the ideal network, where every delivery lands
at the send time.  These traces pin what happens off that path: exact
timestamp ties, in-round liveness timeouts, deliveries carried across
round boundaries (one model lands every delivery exactly on the next
round's start), loss, and churn with rejoin bootstraps, under a trade
attack whose reporting defense evicts attackers in the middle of rounds.

The expected values were recorded from the per-event heap loop (every
send and delivery its own queue event, every delivery one per-pair
interaction), so any later drain strategy must reproduce that loop's
trace exactly: network statistics, delivery fractions, the
time-to-threshold summary, the counter sum, the attacker's dumps and
the evicted ids.  Every backend must match the same numbers.

CI runs this suite per backend: set ``LOTUS_BACKEND`` to a comma list
(e.g. ``LOTUS_BACKEND=bitset``) to restrict the backends.
"""

import os

import pytest

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator
from repro.core.rng import RngStreams

BACKENDS = tuple(
    backend.strip()
    for backend in os.environ.get("LOTUS_BACKEND", "sets,bitset,words").split(",")
    if backend.strip()
)

SEED = 3
ROUNDS = 25

MODELS = {
    # Every delivery of a round lands at one timestamp (ties broken by
    # send order), and partner timeouts fire inside the same round.
    "fixed-ties-timeouts": NetworkModel(
        latency_kind="fixed",
        latency_mean=0.5,
        liveness_timeout=0.25,
        churn_leave_rate=0.01,
        churn_join_rate=0.2,
    ),
    # Latencies up to 1.1 rounds: some deliveries apply next round.
    "uniform-jitter": NetworkModel(
        latency_kind="uniform", latency_mean=0.6, latency_jitter=0.5
    ),
    "exponential-loss-churn": NetworkModel(
        latency_kind="exponential",
        latency_mean=0.3,
        loss_rate=0.05,
        churn_leave_rate=0.01,
        churn_join_rate=0.3,
    ),
    "total-loss": NetworkModel(loss_rate=1.0),
    # Every delivery lands exactly on the next round's start time, so
    # it is due before that round's sends (queued earlier, lower seq).
    "fixed-boundary": NetworkModel(
        latency_kind="fixed",
        latency_mean=1.0,
        liveness_timeout=0.5,
        churn_leave_rate=0.01,
        churn_join_rate=0.2,
    ),
}

#: Attacker ids evicted by the end of the runs, recorded per model.
_EVICTED_FIXED = [
    3, 15, 19, 20, 23, 24, 25, 35, 36, 38, 41, 53, 61, 66, 67, 68, 72, 75,
    82, 87, 88, 91, 93, 99, 115, 116, 120, 121, 122, 123, 127, 133, 137,
    143, 149, 155, 159, 160, 161, 163, 173, 177, 182, 184, 190, 204, 209,
    214, 217, 219, 223, 235, 236, 238, 246, 247, 251, 252, 257, 262, 266,
    267, 271, 274, 276, 278, 281, 290, 291, 292, 298,
]
_EVICTED_UNIFORM = sorted(_EVICTED_FIXED + [259])
_EVICTED_EXPONENTIAL = [
    node for node in _EVICTED_FIXED if node not in (66, 121, 137, 160)
]
_EVICTED_BOUNDARY = [node for node in _EVICTED_FIXED if node != 271]

GOLDEN = {
    "fixed-ties-timeouts": {
        "network_stats": {
            "messages_sent": 14538,
            "messages_lost": 0,
            "messages_to_departed": 420,
            "aborted_by_churn": 50,
            "departures_detected": 406,
            "leaves": 58,
            "joins": 44,
            "seeds_to_departed": 83,
            "bootstrap_updates": 1431,
            "in_flight_at_end": 2,
        },
        "fractions": {
            "isolated": 0.9011111111111111,
            "satiated": 0.9829629629629629,
            "correct": 0.9502222222222222,
        },
        "delivery_time_summary": {
            "threshold": 0.9,
            "reached": 93,
            "expired_unreached": 0,
            "reached_fraction": 1.0,
            "mean_time_to_threshold": 7.0,
        },
        "counter_sum": 102246,
        "updates_served": 11720,
        "evicted": _EVICTED_FIXED,
    },
    "uniform-jitter": {
        "network_stats": {
            "messages_sent": 15000,
            "messages_lost": 0,
            "messages_to_departed": 0,
            "aborted_by_churn": 0,
            "departures_detected": 0,
            "leaves": 0,
            "joins": 0,
            "seeds_to_departed": 0,
            "bootstrap_updates": 0,
            "in_flight_at_end": 61,
        },
        "fractions": {
            "isolated": 0.94,
            "satiated": 0.9879012345679012,
            "correct": 0.9687407407407408,
        },
        "delivery_time_summary": {
            "threshold": 0.9,
            "reached": 91,
            "expired_unreached": 0,
            "reached_fraction": 1.0,
            "mean_time_to_threshold": 6.604395604395604,
        },
        "counter_sum": 108567,
        "updates_served": 11390,
        "evicted": _EVICTED_UNIFORM,
    },
    "exponential-loss-churn": {
        "network_stats": {
            "messages_sent": 14610,
            "messages_lost": 741,
            "messages_to_departed": 361,
            "aborted_by_churn": 26,
            "departures_detected": 252,
            "leaves": 61,
            "joins": 53,
            "seeds_to_departed": 75,
            "bootstrap_updates": 1883,
            "in_flight_at_end": 40,
        },
        "fractions": {
            "isolated": 0.8479629629629629,
            "satiated": 0.9880246913580247,
            "correct": 0.932,
        },
        "delivery_time_summary": {
            "threshold": 0.9,
            "reached": 87,
            "expired_unreached": 3,
            "reached_fraction": 0.9666666666666667,
            "mean_time_to_threshold": 7.505747126436781,
        },
        "counter_sum": 100152,
        "updates_served": 11746,
        "evicted": _EVICTED_EXPONENTIAL,
    },
    "total-loss": {
        "network_stats": {
            "messages_sent": 15000,
            "messages_lost": 15000,
            "messages_to_departed": 0,
            "aborted_by_churn": 0,
            "departures_detected": 0,
            "leaves": 0,
            "joins": 0,
            "seeds_to_departed": 0,
            "bootstrap_updates": 0,
            "in_flight_at_end": 0,
        },
        "fractions": {
            "isolated": 0.037592592592592594,
            "satiated": 0.04271604938271605,
            "correct": 0.04066666666666666,
        },
        "delivery_time_summary": {
            "threshold": 0.9,
            "reached": 0,
            "expired_unreached": 60,
            "reached_fraction": 0.0,
            "mean_time_to_threshold": None,
        },
        "counter_sum": 0,
        "updates_served": 0,
        "evicted": [],
    },
    "fixed-boundary": {
        "network_stats": {
            "messages_sent": 14538,
            "messages_lost": 0,
            "messages_to_departed": 422,
            "aborted_by_churn": 94,
            "departures_detected": 383,
            "leaves": 58,
            "joins": 44,
            "seeds_to_departed": 83,
            "bootstrap_updates": 1490,
            "in_flight_at_end": 580,
        },
        "fractions": {
            "isolated": 0.8883333333333333,
            "satiated": 0.987037037037037,
            "correct": 0.9475555555555556,
        },
        "delivery_time_summary": {
            "threshold": 0.9,
            "reached": 93,
            "expired_unreached": 0,
            "reached_fraction": 1.0,
            "mean_time_to_threshold": 7.043010752688172,
        },
        "counter_sum": 101574,
        "updates_served": 12493,
        "evicted": _EVICTED_BOUNDARY,
    },
}


def _simulator(network, backend="sets"):
    """The golden scenario: 300 nodes under a reported trade attack."""
    config = GossipConfig.paper().replace(n_nodes=300, obedient_fraction=0.3)
    coalition = AttackerCoalition.build(
        AttackKind.TRADE,
        n_nodes=config.n_nodes,
        attacker_fraction=0.25,
        rng=RngStreams(SEED).get("coalition"),
    )
    return GossipSimulator(
        config,
        attack=coalition,
        seed=SEED,
        reporting=ReportingPolicy(excess_threshold=4, reports_to_evict=3),
        execution=ExecutionConfig(backend=backend),
        network=network,
        schedule="event",
    )


def _trace(network, backend):
    """Run the golden scenario and collect what the goldens pin."""
    with _simulator(network, backend) as simulator:
        for _ in range(ROUNDS):
            simulator.step()
        return {
            "network_stats": simulator.network_stats.as_dict(),
            "fractions": {
                group: simulator.delivery_fraction(group)
                for group in ("isolated", "satiated", "correct")
            },
            "delivery_time_summary": simulator.delivery_time_summary(),
            "counter_sum": int(simulator.population.counters.sum()),
            "updates_served": simulator.attack.updates_served,
            "evicted": simulator.authority.evicted_nodes(),
        }


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("model", sorted(MODELS))
def test_golden_trace(model, backend):
    assert _trace(MODELS[model], backend) == GOLDEN[model]


def test_evictions_spread_over_the_run():
    """The reporting defense evicts throughout the run, not only at its
    start, so the drain meets evictions in the middle of rounds."""
    simulator = _simulator(MODELS["exponential-loss-churn"])
    counts = []
    for _ in range(ROUNDS):
        simulator.step()
        counts.append(len(simulator.authority.evicted))
    rounds_with_evictions = sum(
        1 for before, after in zip([0] + counts, counts) if after > before
    )
    assert rounds_with_evictions >= 10
