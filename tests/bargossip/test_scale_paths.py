"""Guards on the million-node hot path.

Four invariants introduced by the scale work, each pinned so it cannot
silently erode:

* **Batched-only execution** — on the words backend every figure-1/2/3
  cell class (attacker, evicted, capped, defended) runs through the
  batched word sweeps, on the sharded cell schedule, the classic rounds
  schedule and the event schedule (the last two as dependency waves);
  the per-node scalar methods are a parity oracle only.  Asserted by
  making them raise and checking the trace is unchanged.
* **Exact capped truncation** — the vectorized top/bottom-k masked
  word sweep equals the per-row arbitrary-precision oracle bit for
  bit, including boundary-word rank ties.
* **Ring-buffer budget** — the word store's live window floats inside
  a fixed-width row (no per-round reallocation), and the simulator's
  ``memory_breakdown`` accounts for every flat byte.
* **Popcount discipline** — hot-path functions count bits via the
  bulk :func:`~repro.bargossip.updates.word_popcounts` family, never
  per-int fallbacks (an AST scan, so a regression fails in review).
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bargossip.attacker import AttackerCoalition, AttackKind
from repro.bargossip.config import GossipConfig
from repro.bargossip.defenses import (
    ReportingPolicy,
    figure3_variants,
    with_larger_pushes,
)
from repro.bargossip.network import NetworkModel
from repro.bargossip.scenario import ExecutionConfig
from repro.bargossip.simulator import GossipSimulator, InteractionEngine
from repro.bargossip.updates import (
    _OCTET_BOTTOM_BITS,
    _OCTET_POPCOUNTS,
    _OCTET_TOP_BITS,
    WordPopulationStore,
    _truncate_word_rows_scalar,
    bottom_bits,
    int_to_words,
    popcount,
    row_items,
    top_bits,
    truncate_word_rows,
    word_popcounts,
)
from repro.core.errors import ConfigurationError, SimulationError
from repro.core.rng import RngStreams

REPO_ROOT = Path(__file__).resolve().parents[2]


def _run(config, kind, execution, seed=7, rounds=10, attacker_fraction=0.2,
         **sim_kwargs):
    streams = RngStreams(seed)
    coalition = AttackerCoalition.build(
        kind,
        n_nodes=config.n_nodes,
        attacker_fraction=attacker_fraction,
        rng=streams.get("coalition"),
    )
    simulator = GossipSimulator(
        config, attack=coalition, seed=seed, execution=execution, **sim_kwargs
    )
    for _ in range(rounds):
        simulator.step()
    return simulator


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
    )
    simulator.close()
    return snapshot


class TestBatchedHotPath:
    """No per-node scalar fallback on the words backend's round loop."""

    WORDS = ExecutionConfig(backend="words", shards=1)

    #: (config, kind, sim kwargs) covering every figure's cell classes:
    #: plain trade, large pushes, the figure-3 defense/variant grid,
    #: rotating targets, and a mass-eviction storm.
    SCENARIOS = [
        ("figure1", GossipConfig.paper(), AttackKind.TRADE, {}),
        (
            "figure2",
            with_larger_pushes(GossipConfig.paper(), 10),
            AttackKind.TRADE,
            {},
        ),
        *[
            (f"figure3:{name}", variant, AttackKind.TRADE, {})
            for name, variant in figure3_variants(GossipConfig.paper()).items()
        ],
        (
            "rotation",
            GossipConfig.paper(),
            AttackKind.IDEAL,
            {"rotate_targets_every": 3},
        ),
        (
            "mass-eviction",
            GossipConfig.small().replace(obedient_fraction=1.0),
            AttackKind.TRADE,
            {
                "reporting": ReportingPolicy(
                    excess_threshold=1, reports_to_evict=1
                ),
                "attacker_fraction": 0.3,
                "rounds": 20,
            },
        ),
    ]

    @staticmethod
    def _ban(monkeypatch):
        def _banned(name):
            def _raise(*args, **kwargs):
                raise AssertionError(
                    f"scalar fallback {name} reached on the batched hot path"
                )
            return _raise

        monkeypatch.setattr(
            InteractionEngine, "_exchange_directed", _banned("_exchange_directed")
        )
        monkeypatch.setattr(
            InteractionEngine, "_push_directed", _banned("_push_directed")
        )
        monkeypatch.setattr(
            InteractionEngine, "interact_exchange", _banned("interact_exchange")
        )
        monkeypatch.setattr(
            AttackerCoalition, "dump_for", _banned("dump_for")
        )

    @pytest.mark.parametrize(
        "name,config,kind,kwargs",
        SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_no_scalar_fallback(self, monkeypatch, name, config, kind, kwargs):
        reference = _snapshot(_run(config, kind, self.WORDS, **kwargs))
        self._ban(monkeypatch)
        batched = _snapshot(_run(config, kind, self.WORDS, **kwargs))
        assert batched == reference

    #: The paper's classic rounds schedule and the event schedule (ideal
    #: and churned networks) on words: both run as dependency waves.
    WAVE_SCHEDULES = [
        ("classic", {}),
        ("event-ideal", {"schedule": "event"}),
        (
            "event-churn",
            {
                "schedule": "event",
                "network": NetworkModel(
                    latency_kind="exponential",
                    latency_mean=0.3,
                    loss_rate=0.05,
                    churn_leave_rate=0.01,
                    churn_join_rate=0.2,
                ),
            },
        ),
    ]

    @pytest.mark.parametrize(
        "schedule,schedule_kwargs",
        WAVE_SCHEDULES,
        ids=[schedule[0] for schedule in WAVE_SCHEDULES],
    )
    @pytest.mark.parametrize(
        "name,config,kind,kwargs",
        SCENARIOS,
        ids=[scenario[0] for scenario in SCENARIOS],
    )
    def test_no_scalar_fallback_in_waves(
        self, monkeypatch, name, config, kind, kwargs, schedule, schedule_kwargs
    ):
        words = ExecutionConfig(backend="words")
        kwargs = {**kwargs, **schedule_kwargs}
        reference = _snapshot(_run(config, kind, words, **kwargs))
        self._ban(monkeypatch)
        waves = _snapshot(_run(config, kind, words, **kwargs))
        assert waves == reference

    def test_mass_eviction_scenario_actually_evicts(self):
        _, config, kind, kwargs = next(
            s for s in self.SCENARIOS if s[0] == "mass-eviction"
        )
        simulator = _run(config, kind, self.WORDS, **kwargs)
        assert sum(node.evicted for node in simulator.nodes) >= 2
        simulator.close()

    def test_ban_helper_actually_bans(self, monkeypatch):
        """The guard itself must bite: the sets backend's scalar loop
        trips it immediately, proving the words runs above genuinely
        avoided every banned call."""
        self._ban(monkeypatch)
        with pytest.raises(AssertionError, match="scalar fallback"):
            _run(
                GossipConfig.small(),
                AttackKind.TRADE,
                ExecutionConfig(backend="sets", shards=1),
                rounds=2,
            )


class TestChunkedSweepParity:
    """Cache blocking is invisible: any chunk size, identical trace."""

    @pytest.mark.parametrize("chunk", [0, 7, 64])
    def test_chunk_size_changes_nothing(self, chunk):
        config = GossipConfig.paper()
        reference = _snapshot(
            _run(
                config,
                AttackKind.TRADE,
                ExecutionConfig(backend="words", shards=1),
            )
        )
        chunked = _snapshot(
            _run(
                config,
                AttackKind.TRADE,
                ExecutionConfig(
                    backend="words", shards=1, phase_chunk_pairs=chunk
                ),
            )
        )
        assert chunked == reference

    def test_negative_chunk_rejected(self):
        with pytest.raises(ConfigurationError):
            ExecutionConfig(backend="words", phase_chunk_pairs=-1)


@st.composite
def _capped_rows(draw):
    """A block of 1-4-word rows, each from empty to full, with counts.

    Each row is a sparse set of bit positions, its complement, or a
    uniform draw, so densities span empty to full; some rows put their
    bits only in the first and last octet of each word, so the cut
    lands there.
    """
    n_words = draw(st.integers(1, 4))
    width = 64 * n_words
    n_rows = draw(st.integers(1, 6))
    rows, counts = [], []
    for _ in range(n_rows):
        shape = draw(st.sampled_from(["sparse", "dense", "uniform", "edge-octets"]))
        positions = draw(st.sets(st.integers(0, width - 1), max_size=24))
        if shape == "edge-octets":
            positions = {p for p in positions if p % 64 < 8 or p % 64 >= 56}
        bits = sum(1 << p for p in positions)
        if shape == "dense":
            bits ^= (1 << width) - 1
        elif shape == "uniform":
            bits = draw(st.integers(0, (1 << width) - 1))
        rows.append(bits)
        counts.append(draw(st.integers(0, popcount(bits))))
    available = np.stack([int_to_words(bits, n_words) for bits in rows])
    return available, np.array(counts, dtype=np.int64)


class TestTruncateWordRows:
    """Vectorized capped truncation vs the per-row oracle."""

    @pytest.mark.parametrize("prefer_newest", [True, False])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_matches_scalar_oracle(self, prefer_newest, seed):
        rng = np.random.default_rng(seed)
        n_rows, n_words = 257, 3
        available = rng.integers(
            0, 1 << 64, size=(n_rows, n_words), dtype=np.uint64
        )
        available[0] = 0  # empty row: owed 0, stays empty
        n_available = word_popcounts(available)
        # Mix of full takes (counts == availability), zero takes, and
        # every partial rank in between, including boundary-word ties.
        counts = rng.integers(0, n_available + 1).astype(np.int64)
        counts[1] = n_available[1]
        counts[2] = 0
        vectorized = available.copy()
        oracle = available.copy()
        truncate_word_rows(
            vectorized, available, counts, n_available, prefer_newest
        )
        _truncate_word_rows_scalar(
            oracle, available, counts, n_available, prefer_newest
        )
        assert np.array_equal(vectorized, oracle)
        assert np.array_equal(word_popcounts(vectorized), counts)
        assert not np.any(vectorized & ~available)

    @given(block=_capped_rows(), prefer_newest=st.booleans())
    def test_matches_scalar_oracle_on_drawn_rows(self, block, prefer_newest):
        available, counts = block
        n_available = word_popcounts(available)
        oracle = available.copy()
        _truncate_word_rows_scalar(
            oracle, available, counts, n_available, prefer_newest
        )
        selected = available.copy()
        truncate_word_rows(
            selected, available, counts, n_available, prefer_newest
        )
        assert np.array_equal(selected, oracle)
        in_place = available.copy()
        truncate_word_rows(
            in_place, in_place, counts, n_available, prefer_newest
        )
        assert np.array_equal(in_place, oracle)

    @pytest.mark.parametrize("prefer_newest", [True, False])
    def test_cut_inside_first_and_last_octet(self, prefer_newest):
        # Bits only in octets 0 and 7 of the middle word: every count
        # short of the popcount cuts inside one of those two octets.
        bits = (0b10110101 | (0b11010011 << 56)) << 64
        available = np.stack([int_to_words(bits, 3)] * 9)
        counts = np.arange(9, dtype=np.int64)
        n_available = word_popcounts(available)
        selected = available.copy()
        truncate_word_rows(
            selected, available, counts, n_available, prefer_newest
        )
        take = top_bits if prefer_newest else bottom_bits
        for row, count in zip(selected, counts):
            assert np.array_equal(row, int_to_words(take(bits, int(count)), 3))

    def test_octet_tables_match_the_bit_helpers(self):
        assert _OCTET_BOTTOM_BITS.shape == _OCTET_TOP_BITS.shape == (256, 9)
        assert _OCTET_BOTTOM_BITS.dtype == _OCTET_TOP_BITS.dtype == np.uint8
        for value in range(256):
            assert _OCTET_POPCOUNTS[value] == popcount(value)
            for k in range(9):
                assert _OCTET_BOTTOM_BITS[value, k] == bottom_bits(value, k)
                assert _OCTET_TOP_BITS[value, k] == top_bits(value, k)


class TestRowItems:
    """Whole-row item views of the word planes."""

    def test_scatter_through_items_writes_the_plane(self):
        plane = np.zeros((5, 3), dtype=np.uint64)
        block = np.arange(6, dtype=np.uint64).reshape(2, 3) + 1
        row_items(plane)[[4, 1]] = row_items(block)
        assert np.array_equal(plane[4], block[0])
        assert np.array_equal(plane[1], block[1])
        assert not plane[[0, 2, 3]].any()

    def test_non_contiguous_plane_rejected(self):
        plane = np.zeros((4, 6), dtype=np.uint64)
        with pytest.raises(ValueError):
            row_items(plane[:, :3])


class TestRingBudget:
    """The word buffer's fixed-width ring and its byte accounting."""

    def test_offset_is_pure_function_of_base(self):
        # Shard slices adopt the coordinator's base and must land on
        # the identical bit layout; nothing else may feed the offset.
        store = WordPopulationStore(4, updates_per_round=10, lifetime=10)
        for round_now in range(0, 40):
            store.advance_to(round_now)
            assert store.offset == store.base % 64

    def test_row_width_never_grows(self):
        config = GossipConfig.paper()
        store = WordPopulationStore(
            4,
            updates_per_round=config.updates_per_round,
            lifetime=config.update_lifetime,
        )
        # Paper capacity 100 -> 100 + 2*63 bits -> 3 words, forever.
        assert store.words_per_row == 3
        width = store.have_words.shape
        for round_now in range(0, 200):
            store.advance_to(round_now)
            assert store.have_words.shape == width

    def test_advance_recycles_expired_columns(self):
        store = WordPopulationStore(3, updates_per_round=4, lifetime=3)
        store.seed([0, 1, 2], col=0)
        store.advance_to(5)  # window slides past everything seeded
        assert not store.have_words.any()

    def test_simulator_memory_breakdown(self):
        config = GossipConfig.small()
        simulator = GossipSimulator(
            config, execution=ExecutionConfig(backend="words", shards=1)
        )
        breakdown = simulator.memory_breakdown()
        store = simulator._pool
        n = config.n_nodes
        assert breakdown["word_row_bytes"] == 2 * n * store.words_per_row * 8
        assert breakdown["counter_bytes"] == n * 8 * 8
        assert breakdown["code_column_bytes"] == 3 * n
        assert breakdown["total_bytes"] == (
            breakdown["word_row_bytes"]
            + breakdown["counter_bytes"]
            + breakdown["code_column_bytes"]
        )
        assert breakdown["bytes_per_node"] == breakdown["total_bytes"] // n
        simulator.close()

    def test_memory_breakdown_requires_words_backend(self):
        simulator = GossipSimulator(
            GossipConfig.small(), execution=ExecutionConfig(backend="sets")
        )
        with pytest.raises(SimulationError):
            simulator.memory_breakdown()


#: Hot-path functions (module path -> dotted names) that must count
#: bits through the bulk ``word_popcounts`` family.  ``iter_bits`` /
#: ``popcount`` / ``int.bit_count`` are per-int: fine in the scalar
#: oracles and the rare report-filing path, banned here.
HOT_PATH_FUNCTIONS = {
    "src/repro/bargossip/simulator.py": (
        "InteractionEngine.run_waves",
        "InteractionEngine.run_exchanges_batched",
        "InteractionEngine.run_pushes_batched",
        "InteractionEngine._split_cell_pairs",
        "InteractionEngine._exchange_apply_clean",
        "InteractionEngine._exchange_pass_mixed",
        "InteractionEngine._push_pass_mixed",
        "InteractionEngine._push_pass_batched",
        "InteractionEngine._apply_dump",
        "GossipSimulator._attack_out_of_band",
        "GossipSimulator._expire_bitset",
        "GossipSimulator._broadcast",
        "GossipSimulator._sample_delivery_times",
        "dependency_waves",
    ),
    "src/repro/bargossip/updates.py": (
        "truncate_word_rows",
        "_split_words",
        "row_items",
        "WordPopulationStore.advance_to",
        "WordPopulationStore.masked_have_popcounts",
        "WordPopulationStore.holder_counts",
        "WordPopulationStore.clear_mask",
        "WordPopulationStore.seed",
        "WordPopulationStore.mask_words",
    ),
    "src/repro/bargossip/exchange.py": (
        "batched_word_exchange",
        "batched_word_dump",
        "exchange_dump_limits",
    ),
    "src/repro/bargossip/push.py": (
        "batched_word_push",
        "push_dump_limits",
    ),
}

_BANNED_CALLS = frozenset(
    {"popcount", "_python_popcount", "bit_count", "iter_bits", "bin"}
)


def _collect_functions(tree):
    """``name`` / ``Class.name`` -> FunctionDef for one module."""
    functions = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            functions[node.name] = node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    functions[f"{node.name}.{item.name}"] = item
    return functions


class TestPopcountDiscipline:
    @pytest.mark.parametrize("rel_path", sorted(HOT_PATH_FUNCTIONS))
    def test_no_per_int_popcounts_on_hot_paths(self, rel_path):
        tree = ast.parse((REPO_ROOT / rel_path).read_text(encoding="utf-8"))
        functions = _collect_functions(tree)
        missing = [
            name for name in HOT_PATH_FUNCTIONS[rel_path]
            if name not in functions
        ]
        assert not missing, f"hot-path functions vanished: {missing}"
        offenders = []
        for name in HOT_PATH_FUNCTIONS[rel_path]:
            for node in ast.walk(functions[name]):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = (
                    func.id if isinstance(func, ast.Name)
                    else func.attr if isinstance(func, ast.Attribute)
                    else None
                )
                if called in _BANNED_CALLS:
                    offenders.append(f"{name}:{node.lineno} calls {called}")
        assert not offenders, (
            "per-int bit counting on a hot path (use word_popcounts / "
            f"word_popcount_matrix): {offenders}"
        )
