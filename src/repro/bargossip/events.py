"""The virtual-time event engine behind ``schedule="event"``.

The paper's experiments run in synchronous rounds; the asynchronous
scenario layer replays the same protocol against virtual time.  The
engine is deliberately tiny: a priority queue of ``(time, seq, event)``
triples (the shape of SNIPPETS.md's cobra-walk simulator, snippet 3)
plus the event vocabulary of one gossip round.

Determinism is the load-bearing property.  Events at equal timestamps
pop in insertion order — the monotonically increasing ``seq`` breaks
ties, and event payloads are never compared — so the whole event trace
is a pure function of the root seed.  This is what makes the parity
pin possible: with zero latency every send and its delivery share one
timestamp, and insertion order reproduces the classic schedule's
initiator order bit-exact.

Interaction events come in send/deliver pairs: a ``*Send`` is the
initiator handing the message to the network (where loss and latency
apply), the matching ``*Deliver`` is the network handing it to the
partner (where the actual :class:`~repro.bargossip.simulator.
InteractionEngine` interaction runs).  Churn events carry no victim —
the victim is drawn when the event fires, so the draw sees the
population as it is then, not as it was when the event was scheduled.

Deliveries are by far the most numerous events (two per node per
round), so they do not go through the heap.  They wait in a columnar
*delivery lane* inside the queue — time, seq, kind, initiator and
partner arrays, kept sorted by ``(time, seq)`` — and leave it in
blocks: :meth:`EventQueue.take_deliveries` hands back every delivery
ordered before a given ``(time, seq)`` key at once.  The lane draws its
``seq`` values from the heap's counter, so a delivery and a heap event
at one timestamp still order by insertion.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import Any, List, Optional, Tuple

import numpy as np

from ..core.errors import SimulationError

__all__ = [
    "EXCHANGE",
    "PUSH",
    "DeliveryBlock",
    "EventQueue",
    "ExchangeSend",
    "ExchangeDeliver",
    "PushSend",
    "PushDeliver",
    "PartnerTimeout",
    "NodeLeave",
    "NodeJoin",
]


#: Interaction kinds, as stored in the delivery lane and fed to
#: :meth:`~repro.bargossip.simulator.InteractionEngine.run_waves`.
EXCHANGE = 0
PUSH = 1


@dataclass(frozen=True)
class ExchangeSend:
    """An initiator hands its balanced-exchange request to the network."""

    initiator: int
    partner: int


@dataclass(frozen=True)
class ExchangeDeliver:
    """The network delivers an exchange request to the partner."""

    initiator: int
    partner: int


@dataclass(frozen=True)
class PushSend:
    """An initiator hands its optimistic-push offer to the network."""

    initiator: int
    partner: int


@dataclass(frozen=True)
class PushDeliver:
    """The network delivers a push offer to the partner."""

    initiator: int
    partner: int


@dataclass(frozen=True)
class PartnerTimeout:
    """The initiator's liveness timer for an unanswered partner fires.

    Scheduled when a delivery finds the partner departed: the initiator
    cannot *know* that — it only observes silence — so departure is
    detected when the timeout fires and the partner is still gone.  If
    the partner rejoined in the meantime the probe counts as answered.
    """

    initiator: int
    partner: int


@dataclass(frozen=True)
class NodeLeave:
    """Churn: one correct node (drawn at fire time) leaves the system."""


@dataclass(frozen=True)
class NodeJoin:
    """Churn: one departed node (drawn at fire time) rejoins."""


#: One block of deliveries taken from the lane, in ``(time, seq)`` order:
#: ``(times, kinds, initiators, partners)`` arrays of equal length.
DeliveryBlock = Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]

class EventQueue:
    """A deterministic virtual-time priority queue.

    Two stores share one sequence counter.  The heap holds
    ``(time, seq, event)`` triples for the sparse events (churn,
    partner timeouts); :meth:`push`, :meth:`pop`, :meth:`peek` and
    :meth:`peek_time` address it.  The delivery lane holds the
    interaction deliveries as sorted columns; :meth:`push_deliveries`
    fills it and :meth:`take_deliveries` empties it block by block.
    ``seq`` increases monotonically across both, so events at equal
    timestamps order by insertion and payloads never need to be
    comparable.  Times must be finite and non-negative; scheduling
    into the past is the caller's bug and is not checked here.
    """

    def __init__(self) -> None:
        self._heap: List[Tuple[float, int, Any]] = []
        self._next_seq = 0
        self._lane_time = np.empty(0, dtype=np.float64)
        self._lane_seq = np.empty(0, dtype=np.int64)
        self._lane_kind = np.empty(0, dtype=np.int8)
        self._lane_initiator = np.empty(0, dtype=np.intp)
        self._lane_partner = np.empty(0, dtype=np.intp)

    def _reserve(self, count: int) -> int:
        """Take ``count`` consecutive sequence numbers; returns the first."""
        first = self._next_seq
        self._next_seq += count
        return first

    def push(self, time: float, event: Any) -> None:
        """Schedule ``event`` at virtual ``time`` on the heap."""
        time = float(time)
        if not math.isfinite(time) or time < 0.0:
            raise SimulationError(
                f"event time must be finite and >= 0, got {time!r}"
            )
        heapq.heappush(self._heap, (time, self._reserve(1), event))

    def pop(self) -> Tuple[float, Any]:
        """Remove and return the heap's earliest ``(time, event)`` pair."""
        if not self._heap:
            raise SimulationError("pop from an empty EventQueue")
        time, _, event = heapq.heappop(self._heap)
        return time, event

    def peek(self) -> Optional[Tuple[float, int, Any]]:
        """The heap's earliest ``(time, seq, event)``, or None when empty."""
        return self._heap[0] if self._heap else None

    def peek_time(self) -> Optional[float]:
        """The heap's earliest scheduled time, or None when empty."""
        return self._heap[0][0] if self._heap else None

    def push_deliveries(self, times, kinds, initiators, partners) -> None:
        """Append deliveries to the lane, in the order given.

        Each delivery takes the next sequence number, exactly as if it
        had been pushed on its own; the lane is re-sorted by
        ``(time, seq)`` once per block.  (Separate contiguous columns,
        not one structured array: strided field views cost the event
        round measurably more resident memory.)
        """
        times = np.asarray(times, dtype=np.float64)
        if not len(times):
            return
        if not np.isfinite(times).all() or (times < 0.0).any():
            raise SimulationError("delivery times must be finite and >= 0")
        first = self._reserve(len(times))
        seqs = np.arange(first, first + len(times), dtype=np.int64)
        time = np.concatenate((self._lane_time, times))
        seq = np.concatenate((self._lane_seq, seqs))
        order = np.lexsort((seq, time))
        self._lane_time = time[order]
        self._lane_seq = seq[order]
        for name, values in (
            ("_lane_kind", kinds),
            ("_lane_initiator", initiators),
            ("_lane_partner", partners),
        ):
            column = getattr(self, name)
            merged = np.concatenate((column, np.asarray(values, dtype=column.dtype)))
            setattr(self, name, merged[order])

    def take_deliveries(
        self, time: float, seq: Optional[int] = None
    ) -> Optional[DeliveryBlock]:
        """Remove the lane's deliveries ordered before ``(time, seq)``.

        ``seq=None`` takes every delivery strictly before ``time``.
        Returns the block in ``(time, seq)`` order, or None when no
        delivery is due.
        """
        lane_time = self._lane_time
        end = int(np.searchsorted(lane_time, time, side="left"))
        if seq is not None:
            tied = int(np.searchsorted(lane_time, time, side="right"))
            end += int(np.searchsorted(self._lane_seq[end:tied], seq))
        if end == 0:
            return None
        block = (
            lane_time[:end],
            self._lane_kind[:end],
            self._lane_initiator[:end],
            self._lane_partner[:end],
        )
        self._lane_time = lane_time[end:]
        self._lane_seq = self._lane_seq[end:]
        self._lane_kind = self._lane_kind[end:]
        self._lane_initiator = self._lane_initiator[end:]
        self._lane_partner = self._lane_partner[end:]
        return block

    def __len__(self) -> int:
        return len(self._heap) + len(self._lane_time)

    def __bool__(self) -> bool:
        return len(self) > 0
