"""The network scenario model: latency, loss and churn.

:class:`NetworkModel` describes everything between a send and its
delivery — per-link latency (fixed / uniform / exponential), message
loss, and node churn as Poisson join/leave rates — plus the timeout
the initiator uses to *detect* a departed partner (departures are
observed as silence, never assumed).  The ideal model (zero latency,
zero loss, zero churn) is the synchronous-rounds world: under it the
event schedule reproduces the classic schedule bit-exact (pinned by
the schedule-parity suite).

The model draws from a dedicated ``"network"`` RNG stream (churn from
``"churn"``), so enabling any of it never perturbs the protocol's own
streams — which is exactly why the parity pin can hold.

:class:`NetworkStats` tallies what the network did to the protocol's
messages, and :class:`DeliveryTimeTracker` measures the new
virtual-time headline metric: how long a fresh update takes to reach a
threshold fraction (90% by default) of the live correct population.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from ..core.errors import ConfigurationError

__all__ = ["NetworkModel", "NetworkStats", "DeliveryTimeTracker"]

#: Latency distributions a link may draw from.
LATENCY_KINDS = ("fixed", "uniform", "exponential")


@dataclass(frozen=True)
class NetworkModel:
    """One asynchronous-network scenario (immutable, JSON round-trippable).

    All times are in virtual-time units; one synchronous round spans
    ``round_duration`` of them, so ``latency_mean=0.3`` means a typical
    message spends a third of a round in flight.
    """

    #: Latency distribution: ``"fixed"`` (every message takes
    #: ``latency_mean``), ``"uniform"`` (uniform on ``latency_mean``
    #: +/- ``latency_jitter``, clipped at 0) or ``"exponential"``
    #: (mean ``latency_mean``).
    latency_kind: str = "fixed"
    #: Mean one-way message latency, in round durations.
    latency_mean: float = 0.0
    #: Half-width of the uniform latency distribution; ignored by the
    #: other kinds.
    latency_jitter: float = 0.0
    #: Probability an individual message is silently dropped.
    loss_rate: float = 0.0
    #: Poisson rate at which each live correct node leaves the system,
    #: per node per time unit (0 disables departures).
    churn_leave_rate: float = 0.0
    #: Poisson rate at which each departed node rejoins, per node per
    #: time unit (0 disables rejoins).  A rejoining node bootstraps by
    #: re-seeding its live-update state from a random live correct node.
    churn_join_rate: float = 0.0
    #: How long an initiator waits for a reply before concluding the
    #: partner departed.  Departure is *detected* (the timeout fires
    #: while the partner is still gone), never assumed.
    liveness_timeout: float = 1.0
    #: Virtual-time span of one protocol round.
    round_duration: float = 1.0

    @classmethod
    def ideal(cls) -> "NetworkModel":
        """The synchronous-rounds world: zero latency, loss and churn."""
        return cls()

    @property
    def is_ideal(self) -> bool:
        """True when the model cannot perturb the classic schedule."""
        return (
            self.latency_mean == 0.0
            and self.latency_jitter == 0.0
            and self.loss_rate == 0.0
            and self.churn_leave_rate == 0.0
            and self.churn_join_rate == 0.0
        )

    def replace(self, **changes: Any) -> "NetworkModel":
        """A copy of this model with ``changes`` applied."""
        return dataclasses.replace(self, **changes)

    def latency_sampler(self, rng) -> Callable[[], float]:
        """A zero-argument draw of one message's latency from ``rng``.

        Resolves the latency kind once, so a send loop can draw per
        message without re-dispatching on it.  Each call makes one
        draw, or none for fixed latency and zero-mean exponential.
        """
        if self.latency_kind == "fixed":
            latency = self.latency_mean
            return lambda: latency
        if self.latency_kind == "uniform":
            low = max(0.0, self.latency_mean - self.latency_jitter)
            high = self.latency_mean + self.latency_jitter
            uniform = rng.uniform
            return lambda: float(uniform(low, high))
        # exponential; zero mean degenerates to instant delivery
        mean = self.latency_mean
        if mean == 0.0:
            return lambda: 0.0
        exponential = rng.exponential
        return lambda: float(exponential(mean))

    def to_dict(self) -> Dict[str, Any]:
        """A plain-JSON representation (canonical cache/spec form)."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "NetworkModel":
        """Inverse of :meth:`to_dict`; unknown keys are rejected."""
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise ConfigurationError(
                f"unknown NetworkModel keys: {unknown} (known: {sorted(known)})"
            )
        return cls(**payload)

    def __post_init__(self) -> None:
        if self.latency_kind not in LATENCY_KINDS:
            raise ConfigurationError(
                f"latency_kind must be one of {LATENCY_KINDS}, "
                f"got {self.latency_kind!r}"
            )
        if self.latency_mean < 0.0:
            raise ConfigurationError(
                f"latency_mean must be >= 0, got {self.latency_mean}"
            )
        if self.latency_jitter < 0.0:
            raise ConfigurationError(
                f"latency_jitter must be >= 0, got {self.latency_jitter}"
            )
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ConfigurationError(
                f"loss_rate must be in [0, 1], got {self.loss_rate}"
            )
        if self.churn_leave_rate < 0.0 or self.churn_join_rate < 0.0:
            raise ConfigurationError(
                "churn rates must be >= 0, got leave="
                f"{self.churn_leave_rate} join={self.churn_join_rate}"
            )
        if self.liveness_timeout <= 0.0:
            raise ConfigurationError(
                f"liveness_timeout must be positive, got {self.liveness_timeout}"
            )
        if self.round_duration <= 0.0:
            raise ConfigurationError(
                f"round_duration must be positive, got {self.round_duration}"
            )


@dataclass
class NetworkStats:
    """What the network did to the protocol's messages (one run)."""

    #: Messages initiators handed to the network.
    messages_sent: int = 0
    #: Messages the loss model dropped in flight.
    messages_lost: int = 0
    #: Deliveries that found the partner departed (the initiator's
    #: liveness timer starts here).
    messages_to_departed: int = 0
    #: Deliveries whose *initiator* departed while the message was in
    #: flight, aborting the interaction.
    aborted_by_churn: int = 0
    #: Liveness timeouts that fired on a still-departed partner.
    departures_detected: int = 0
    #: Churn events applied.
    leaves: int = 0
    joins: int = 0
    #: Broadcast seeds that targeted a departed node (never applied).
    seeds_to_departed: int = 0
    #: Updates restored to rejoining nodes by bootstrap re-seeding.
    bootstrap_updates: int = 0
    #: Messages still in flight when the run ended.
    in_flight_at_end: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class DeliveryTimeTracker:
    """Time-to-threshold delivery in virtual time.

    Tracks each measured update from its release until the fraction of
    live correct nodes holding it first reaches ``threshold`` (sampled
    at round boundaries by the event loop).  The summary reports the
    mean release-to-threshold delay over the updates that made it, plus
    how many expired without ever reaching the threshold — the
    "deliveries lost to churn/loss" side of the metric.
    """

    threshold: float = 0.9
    #: update id -> release time, for updates still being tracked.
    pending: Dict[int, float] = field(default_factory=dict)
    _delays: List[float] = field(default_factory=list)
    _expired_unreached: int = 0

    def release(self, updates, time: float) -> None:
        for update in updates:
            self.pending[int(update)] = float(time)

    def mark_reached(self, update: int, time: float) -> None:
        released = self.pending.pop(update, None)
        if released is not None:
            self._delays.append(float(time) - released)

    def expire_unreached(self, updates) -> None:
        for update in updates:
            if self.pending.pop(int(update), None) is not None:
                self._expired_unreached += 1

    def summary(self) -> Dict[str, Optional[float]]:
        reached = len(self._delays)
        expired = self._expired_unreached
        finished = reached + expired
        return {
            "threshold": self.threshold,
            "reached": reached,
            "expired_unreached": expired,
            "reached_fraction": (reached / finished) if finished else None,
            "mean_time_to_threshold": (
                sum(self._delays) / reached if reached else None
            ),
        }
