"""Phase spans and protocol counts, recorded from outside the simulator.

The simulator has no recorder of its own yet, so the traced run wraps
the layer entry points it can reach from benchmark code and restores
them after every traced round.  These are the seams an in-program
recorder should replace:

* ``GossipSimulator`` instance methods ``_broadcast``,
  ``_attack_out_of_band``, ``_expire`` and ``_sample_delivery_times``,
  the event handlers in its ``_handlers`` table, and ``_make_node``
  (overridden in :class:`TracedSimulator`, since it runs inside
  ``__init__``);
* ``InteractionEngine`` instance methods ``run_exchanges``,
  ``run_exchanges_batched``, ``run_pushes``, ``run_pushes_batched``,
  ``attacker_dump`` and ``_apply_dump``;
* the partner schedule's ``partners_for_round`` / ``round_pairs`` /
  ``round_order``, the word store's ``advance_to`` and the event
  queue's ``push`` / ``pop`` / ``peek_time``, on the instance;
* module globals of ``repro.bargossip.simulator`` (the per-pair planners
  ``bitset_exchange``, ``plan_balanced_exchange``, ``bitset_plan_push``,
  ``plan_optimistic_push`` and ``batched_push_eligibility``) and the
  ``truncate_word_rows`` imported by ``repro.bargossip.exchange`` and
  ``repro.bargossip.push``.

The event schedule's send and pop loops are inline in ``_step_event``:
their calls into the queue are timed as ``events.queue``, and the
loops' own bookkeeping between those calls is left unattributed.
"""

from __future__ import annotations

import statistics
from collections import Counter, defaultdict
from time import perf_counter_ns
from typing import Callable, Dict, List, Tuple

import numpy as np

import repro.bargossip.exchange as exchange_module
import repro.bargossip.push as push_module
import repro.bargossip.simulator as simulator_module
from repro.bargossip.events import (
    ExchangeDeliver,
    ExchangeSend,
    NodeJoin,
    NodeLeave,
    PartnerTimeout,
    PushDeliver,
    PushSend,
)
from repro.bargossip.node import COUNTER_INDEX
from repro.bargossip.partner import Purpose
from repro.bargossip.simulator import GossipSimulator

__all__ = ["Tracer", "TracedSimulator", "traced_simulator_class"]

_MODULE_SPANS = (
    (simulator_module, "bitset_exchange", ("exchange.plan",)),
    (simulator_module, "plan_balanced_exchange", ("exchange.plan",)),
    (simulator_module, "bitset_plan_push", ("push.plan",)),
    (simulator_module, "plan_optimistic_push", ("push.plan",)),
    (simulator_module, "batched_push_eligibility", ("push.eligibility",)),
    (exchange_module, "truncate_word_rows", ("updates.truncate",)),
    (push_module, "truncate_word_rows", ("updates.truncate",)),
)

_SIMULATOR_SPANS = (
    ("_broadcast", ("simulator.broadcast",)),
    ("_attack_out_of_band", ("simulator.attack_oob",)),
    ("_expire", ("simulator.expire",)),
)

_ENGINE_SPANS = (
    ("run_exchanges", ("simulator.exchange_phase",)),
    ("run_exchanges_batched", ("simulator.exchange_phase", "exchange.batched")),
    ("run_pushes", ("simulator.push_phase",)),
    ("run_pushes_batched", ("simulator.push_phase", "push.batched")),
)

_HANDLER_SPANS = {
    ExchangeSend: ("simulator.exchange_phase", "_handler"),
    ExchangeDeliver: (
        "simulator.exchange_phase",
        "events.exchange_deliver",
        "_handler",
    ),
    PushSend: ("simulator.push_phase", "_handler"),
    PushDeliver: ("simulator.push_phase", "events.push_deliver", "_handler"),
    PartnerTimeout: ("events.churn", "_handler"),
    NodeLeave: ("events.churn", "_handler"),
    NodeJoin: ("events.churn", "_handler"),
}

#: Counter-matrix columns whose per-round deltas the traced run sums.
_COUNTED_COLUMNS = (
    "exchanges_initiated",
    "exchanges_nonempty",
    "pushes_initiated",
    "pushes_nonempty",
    "junk_sent",
)


def _dump_names(args, kwargs) -> Tuple[str, ...]:
    purpose = kwargs.get("purpose", args[-1] if args else None)
    return ("exchange.dump",) if purpose is Purpose.EXCHANGE else ("push.dump",)


class Tracer:
    """Per-round span totals and run-total counts for traced rounds."""

    def __init__(self) -> None:
        #: One dict per traced round: span name -> ns, plus ``_round``
        #: (the whole step), ``_top`` (spans not nested in a span) and
        #: ``_self`` (the tracer's own book-keeping after un-nested spans,
        #: which is not the program's time).
        self.rounds: List[Dict[str, int]] = []
        #: Calls per span name over all traced rounds.
        self.calls: Counter = Counter()
        #: Protocol counts summed over all traced rounds.
        self.counts: Counter = Counter()
        self._current: Dict[str, int] = defaultdict(int)
        self._depth = 0

    # -- spans -----------------------------------------------------------

    def _close(self, names: Tuple[str, ...], elapsed: int) -> None:
        current = self._current
        for name in names:
            current[name] += elapsed
            self.calls[name] += 1
        if self._depth == 0:
            current["_top"] += elapsed

    def wrap(self, fn: Callable, names) -> Callable:
        """``fn`` timed into ``names`` (a tuple, or a function of the call)."""
        tracer = self

        def span(*args, **kwargs):
            start = perf_counter_ns()
            tracer._depth += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._depth -= 1
                tracer._close(names(args, kwargs) if callable(names) else names, end - start)
                if not tracer._depth:
                    tracer._current["_self"] += perf_counter_ns() - end

        return span

    def _wrap_queue_op(self, fn: Callable) -> Callable:
        """An event-queue method, timed as ``events.queue`` when the round
        loop calls it directly.

        A call from inside a span (a handler sending a delivery) runs
        untimed: its time is already that span's.  The wrapper is kept
        lean because the loops call it hundreds of thousands of times a
        round.
        """
        tracer = self

        def op(*args):
            if tracer._depth:
                return fn(*args)
            start = perf_counter_ns()
            result = fn(*args)
            end = perf_counter_ns()
            current = tracer._current
            current["events.queue"] += end - start
            current["_top"] += end - start
            current["_self"] += perf_counter_ns() - end
            return result

        return op

    # -- installation ------------------------------------------------------

    def _install(self, sim: GossipSimulator) -> Callable[[], None]:
        """Wrap ``sim``'s seams; returns the function that restores them."""
        restores: List[Callable[[], None]] = []

        def on_instance(obj, attr, wrapper) -> None:
            setattr(obj, attr, wrapper)
            restores.append(lambda: delattr(obj, attr))

        for attr, names in _SIMULATOR_SPANS:
            on_instance(sim, attr, self.wrap(getattr(sim, attr), names))
        engine = sim._engine
        for attr, names in _ENGINE_SPANS:
            on_instance(engine, attr, self.wrap(getattr(engine, attr), names))
        for attr in ("attacker_dump", "_apply_dump"):
            on_instance(engine, attr, self.wrap(getattr(engine, attr), _dump_names))
        partners = sim._partners
        for attr in ("partners_for_round", "round_pairs", "round_order"):
            if hasattr(partners, attr):
                on_instance(
                    partners,
                    attr,
                    self.wrap(getattr(partners, attr), ("partner.schedule",)),
                )
        if hasattr(sim._pool, "advance_to"):
            on_instance(
                sim._pool,
                "advance_to",
                self.wrap(sim._pool.advance_to, ("updates.advance",)),
            )
        if sim.schedule == "event":
            on_instance(
                sim,
                "_sample_delivery_times",
                self.wrap(sim._sample_delivery_times, ("events.sample",)),
            )
            queue = sim._events
            for attr in ("push", "pop", "peek_time"):
                on_instance(queue, attr, self._wrap_queue_op(getattr(queue, attr)))
            handlers = dict(sim._handlers)
            for event_type, names in _HANDLER_SPANS.items():
                sim._handlers[event_type] = self.wrap(handlers[event_type], names)
            restores.append(lambda: sim._handlers.update(handlers))
        for module, name, names in _MODULE_SPANS:
            original = getattr(module, name)
            setattr(module, name, self.wrap(original, names))
            restores.append(
                lambda module=module, name=name, original=original: setattr(
                    module, name, original
                )
            )

        def restore() -> None:
            for undo in reversed(restores):
                undo()

        return restore

    # -- rounds ------------------------------------------------------------

    @staticmethod
    def _snapshot(sim: GossipSimulator) -> Dict[str, int]:
        columns = sim.population.counters.sum(axis=0)
        snap = {name: int(columns[COUNTER_INDEX[name]]) for name in _COUNTED_COLUMNS}
        snap["updates_served"] = sim.attack.updates_served
        stats = sim.network_stats
        snap["messages_sent"] = stats.messages_sent if stats is not None else 0
        snap["messages_lost"] = stats.messages_lost if stats is not None else 0
        return snap

    def traced_step(self, sim: GossipSimulator, step: Callable[[], None]) -> int:
        """Run one traced round; returns its wall time in ns."""
        before = self._snapshot(sim)
        restore = self._install(sim)
        self._current = defaultdict(int)
        start = perf_counter_ns()
        try:
            step()
        finally:
            elapsed = perf_counter_ns() - start
            restore()
        self._current["_round"] = elapsed
        self.rounds.append(dict(self._current))
        after = self._snapshot(sim)
        for name, value in after.items():
            self.counts[name] += value - before[name]
        return elapsed

    # -- summary -----------------------------------------------------------

    def span_ms(self, name: str) -> float:
        """Median over traced rounds of the span's per-round total, in ms."""
        if not self.rounds:
            return 0.0
        return statistics.median(r.get(name, 0) for r in self.rounds) / 1e6

    def unattributed_ms(self) -> float:
        """Median traced round time outside un-nested spans and book-keeping."""
        return (
            statistics.median(r["_round"] - r["_top"] - r["_self"] for r in self.rounds)
            / 1e6
        )

    def coverage(self) -> float:
        """Share of traced round time inside un-nested spans.

        The tracer's measured book-keeping after un-nested spans is
        taken out of the round time first; what it cannot measure (the
        call into a wrapper) stays in, and counts as uncovered.
        """
        total = sum(r["_round"] - r["_self"] for r in self.rounds)
        return sum(r["_top"] for r in self.rounds) / total if total else 0.0

    def round_ms(self) -> List[float]:
        return [r["_round"] / 1e6 for r in self.rounds]


def _ratio(numerator: int, denominator: int) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The span and count metrics of one tracer, by metric name."""
    counts = tracer.counts
    calls = tracer.calls
    spans = {
        "simulator.exchange_phase_ms": "simulator.exchange_phase",
        "simulator.push_phase_ms": "simulator.push_phase",
        "simulator.broadcast_ms": "simulator.broadcast",
        "simulator.attack_oob_ms": "simulator.attack_oob",
        "simulator.expire_ms": "simulator.expire",
        "partner.schedule_ms": "partner.schedule",
        "exchange.batched_ms": "exchange.batched",
        "exchange.dump_ms": "exchange.dump",
        "push.batched_ms": "push.batched",
        "push.eligibility_ms": "push.eligibility",
        "push.dump_ms": "push.dump",
        "updates.truncate_ms": "updates.truncate",
        "updates.advance_ms": "updates.advance",
        "events.queue_ms": "events.queue",
        "events.exchange_deliver_ms": "events.exchange_deliver",
        "events.push_deliver_ms": "events.push_deliver",
        "events.churn_ms": "events.churn",
        "events.sample_ms": "events.sample",
    }
    metrics: Dict[str, Tuple[float, str]] = {
        name: (tracer.span_ms(span), "ms") for name, span in spans.items()
    }
    metrics.update(
        {
            "simulator.unattributed_ms": (tracer.unattributed_ms(), "ms"),
            "trace.coverage": (tracer.coverage(), "ratio"),
            "trace.rounds": (len(tracer.rounds), "count"),
            "exchange.plan_calls": (calls["exchange.plan"], "count"),
            "exchange.pairs": (counts["exchanges_initiated"], "count"),
            "exchange.nonempty_ratio": (
                _ratio(counts["exchanges_nonempty"], counts["exchanges_initiated"]),
                "ratio",
            ),
            "push.plan_calls": (calls["push.plan"], "count"),
            "push.nonempty_ratio": (
                _ratio(counts["pushes_nonempty"], counts["pushes_initiated"]),
                "ratio",
            ),
            "push.junk_units": (counts["junk_sent"], "count"),
            "updates.truncate_calls": (calls["updates.truncate"], "count"),
            "attacker.updates_served": (counts["updates_served"], "count"),
            "events.processed": (calls["_handler"], "count"),
            "network.messages_sent": (counts["messages_sent"], "count"),
            "network.loss_ratio": (
                _ratio(counts["messages_lost"], counts["messages_sent"]), "ratio"
            ),
        }
    )
    return metrics


def deterministic_counts(tracer: Tracer) -> Dict[str, int]:
    """The counts two traced runs of one seed must reproduce exactly."""
    return {
        **{f"calls.{name}": value for name, value in sorted(tracer.calls.items())},
        **{f"counts.{name}": value for name, value in sorted(tracer.counts.items())},
        "rounds": len(tracer.rounds),
    }


class TracedSimulator(GossipSimulator):
    """A :class:`GossipSimulator` whose rounds run under a :class:`Tracer`.

    Construction times ``_make_node`` separately from the rest of
    set-up.  ``tracing`` switches span recording per round; an untraced
    round runs the parent's ``step`` unchanged.
    """

    def __init__(self, *args, tracer: Tracer, **kwargs) -> None:
        self.tracer = tracer
        self.tracing = True
        self.make_node_ns = 0
        start = perf_counter_ns()
        super().__init__(*args, **kwargs)
        self.setup_ns = perf_counter_ns() - start

    def _make_node(self, node_id: int):
        start = perf_counter_ns()
        node = super()._make_node(node_id)
        self.make_node_ns += perf_counter_ns() - start
        return node

    def step(self) -> None:
        if self.tracing:
            self.tracer.traced_step(self, super().step)
        else:
            super().step()


def traced_simulator_class(tracer: Tracer, built: List[TracedSimulator]):
    """A drop-in ``GossipSimulator`` class tracing into ``tracer``.

    Used to trace simulators that library code constructs itself (the
    figure sweep's ``run_experiment``); every instance is appended to
    ``built``.
    """

    class BoundTracedSimulator(TracedSimulator):
        def __init__(self, *args, **kwargs) -> None:
            super().__init__(*args, tracer=tracer, **kwargs)
            built.append(self)

    return BoundTracedSimulator


def store_metrics(sim: GossipSimulator) -> Dict[str, Tuple[float, str]]:
    """Budgeted bytes of the word store and the population columns."""
    population = sim.population.memory_breakdown()
    words = (
        sim.memory_breakdown()
        if isinstance(sim._pool, simulator_module.WordPopulationStore)
        else {"bytes_per_node": 0, "word_row_bytes": 0}
    )
    return {
        "updates.budget_bytes_per_node": (words["bytes_per_node"], "B/node"),
        "updates.word_row_bytes": (words["word_row_bytes"], "bytes"),
        "population.counter_bytes": (population["counter_bytes"], "bytes"),
        "population.code_column_bytes": (population["code_column_bytes"], "bytes"),
    }


def setup_metrics(sims: List[TracedSimulator]) -> Dict[str, Tuple[float, str]]:
    """Median construction split: ``_make_node`` vs everything else."""
    nodes = [sim.make_node_ns / 1e9 for sim in sims]
    rest = [(sim.setup_ns - sim.make_node_ns) / 1e9 for sim in sims]
    return {
        "simulator.setup_nodes_s": (float(np.median(nodes)), "s"),
        "simulator.setup_store_s": (float(np.median(rest)), "s"),
    }
