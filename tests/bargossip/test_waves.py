"""Dependency waves: the numbering, and the words engine running on it.

:func:`~repro.bargossip.simulator.dependency_waves` must give every
interaction the greedy longest-chain number (one more than the highest
wave among earlier interactions sharing a node) — the greedy loop below
is the oracle — and every wave must be node-disjoint.  On top of it,
the words backend runs the classic rounds schedule and the event
schedule's deliveries as waves; both must reproduce the ``sets``
oracle's per-pair trace exactly, with the reporting defense evicting
mid-round and rotating targets.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.bargossip.attacker import AttackKind, AttackerCoalition
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import ReportingPolicy
from repro.bargossip.events import EXCHANGE, PUSH
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import (
    GossipSimulator,
    dependency_waves,
    interaction_sequence,
)
from repro.core.rng import RngStreams


def greedy_waves(left, right):
    """The oracle: one pass over the sequence, longest chain per node."""
    last = {}
    waves = []
    for a, b in zip(left, right):
        wave = 1 + max(last.get(a, 0), last.get(b, 0))
        last[a] = last[b] = wave
        waves.append(wave)
    return waves


@st.composite
def sequences(draw):
    n_nodes = draw(st.integers(min_value=2, max_value=30))
    pairs = draw(
        st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=n_nodes - 1),
                st.integers(min_value=0, max_value=n_nodes - 1),
            ).filter(lambda pair: pair[0] != pair[1]),
            max_size=200,
        )
    )
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    return n_nodes, left, right


class TestDependencyWaves:
    @settings(max_examples=200, deadline=None)
    @given(sequences())
    def test_peel_equals_greedy(self, sequence):
        n_nodes, left, right = sequence
        waves = dependency_waves(left, right, n_nodes)
        assert waves.tolist() == greedy_waves(left, right)

    @settings(max_examples=200, deadline=None)
    @given(sequences())
    def test_waves_are_node_disjoint(self, sequence):
        n_nodes, left, right = sequence
        waves = dependency_waves(left, right, n_nodes)
        for wave in np.unique(waves):
            members = np.flatnonzero(waves == wave)
            nodes = [left[k] for k in members] + [right[k] for k in members]
            assert len(nodes) == len(set(nodes))

    def test_empty_sequence(self):
        assert len(dependency_waves([], [], 4)) == 0

    def test_interaction_sequence_drops_unpaired(self):
        order = np.array([2, 0, 1])
        exchange = np.array([1, 1, 0])  # node 1 is its own partner
        push = np.array([2, 0, 2])  # node 2 is its own partner
        kinds, initiators, partners = interaction_sequence(order, exchange, push)
        assert kinds.tolist() == [EXCHANGE, EXCHANGE, PUSH, PUSH]
        assert initiators.tolist() == [2, 0, 0, 1]
        assert partners.tolist() == [0, 1, 2, 0]


def _snapshot(simulator):
    snapshot = (
        simulator.stats.delivered,
        simulator.stats.missed,
        simulator.per_node_delivered,
        simulator.per_node_missed,
        [
            (node.counters, node.evicted, node.group,
             frozenset(node.store.have), frozenset(node.store.missing))
            for node in simulator.nodes
        ],
        simulator.attack.updates_served,
        simulator.delivery_time_summary(),
        (
            simulator.network_stats.as_dict()
            if simulator.network_stats is not None
            else None
        ),
    )
    simulator.close()
    return snapshot


def _run(backend, schedule, network, seed, kind, rounds=14):
    config = GossipConfig.small().replace(obedient_fraction=0.5)
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=0.25,
        rng=RngStreams(seed).get("coalition"),
    )
    simulator = GossipSimulator(
        config,
        attack=coalition,
        seed=seed,
        reporting=ReportingPolicy(excess_threshold=2, reports_to_evict=2),
        rotate_targets_every=4,
        execution=ExecutionConfig(backend=backend),
        network=network,
        schedule=schedule,
    )
    for _ in range(rounds):
        simulator.step()
    return _snapshot(simulator)


NETWORKS = st.sampled_from(
    [
        NetworkModel.ideal(),
        NetworkModel(latency_kind="fixed", latency_mean=0.5, liveness_timeout=0.25,
                     churn_leave_rate=0.02, churn_join_rate=0.3),
        NetworkModel(latency_kind="uniform", latency_mean=0.5, latency_jitter=0.4,
                     loss_rate=0.1),
        NetworkModel(latency_kind="exponential", latency_mean=0.4, loss_rate=0.05,
                     churn_leave_rate=0.02, churn_join_rate=0.2),
    ]
)
KINDS = st.sampled_from([AttackKind.TRADE, AttackKind.IDEAL, AttackKind.CRASH])


class TestWordsWavesMatchSets:
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), kind=KINDS)
    def test_classic_rounds_schedule(self, seed, kind):
        ideal = NetworkModel.ideal()
        assert _run("words", "rounds", ideal, seed, kind) == _run(
            "sets", "rounds", ideal, seed, kind
        )

    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=10_000), kind=KINDS,
           network=NETWORKS)
    def test_event_schedule(self, seed, kind, network):
        assert _run("words", "event", network, seed, kind) == _run(
            "sets", "event", network, seed, kind
        )
