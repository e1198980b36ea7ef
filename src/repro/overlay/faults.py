"""Deterministic transport fault injection — the robustness substrate.

The paper's ``Retrieve`` guarantee (Section 2) holds only "if at least
one peer in each partition is reachable"; the live robustness evaluation
is deferred to PlanetLab.  This module reproduces that setting in
simulation: a seeded :class:`FaultPlan` describes *what* goes wrong on
the wire (per-message drops, transient peer unavailability windows,
slow links), a :class:`FaultInjector` applies it to every delivery
attempt the :class:`~repro.overlay.routing.Router` makes, and a
:class:`RetryPolicy` governs how the sender reacts (capped exponential
backoff, a per-query retry budget, replica failover on timeout).

Redundant attempts are charged to the
:class:`~repro.overlay.messages.MessageTracer` under dedicated
``retry`` / ``failover`` phases, so robustness overhead appears in the
same message/byte currency the paper measures.

The default plan is a **no-op**: an inactive injector (or none at all)
leaves the delivery path untouched — same code path, same RNG draws,
same message series, bit for bit.  The injector draws from its *own*
seeded RNG, never from the router's, so even an active plan perturbs
only what it drops.

When retries and failover are exhausted, behaviour depends on the
network's :class:`FaultMode`:

* ``STRICT`` (the default) — raise
  :class:`~repro.core.errors.PartitionUnreachableError`, today's
  semantics;
* ``DEGRADED`` — skip the dark partition, record it on the per-query
  :class:`FaultSession`, and let operators return partial results
  annotated with a :class:`Completeness` record (attached to the
  query's :class:`~repro.overlay.messages.CostReport`).
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field

from repro.core.errors import ConfigError


class DeliveryOutcome(enum.Enum):
    """What the injector decided about one delivery attempt."""

    DELIVERED = "delivered"  # message arrived
    DROPPED = "dropped"  # lost on the wire; sender may retry
    UNAVAILABLE = "unavailable"  # receiver not answering; sender fails over


class FaultMode(enum.Enum):
    """How exhausted retries / dark partitions surface to callers."""

    STRICT = "strict"  # raise PartitionUnreachableError (today's semantics)
    DEGRADED = "degraded"  # skip, record, return partial results

    @classmethod
    def from_name(cls, name: "FaultMode | str") -> "FaultMode":
        if isinstance(name, cls):
            return name
        normalized = str(name).strip().lower()
        for mode in cls:
            if normalized == mode.value:
                return mode
        raise ConfigError(f"unknown fault mode: {name!r}")


@dataclass(frozen=True)
class FaultPlan:
    """A seeded description of transport faults.

    ``drop_probability``
        Per-delivery-attempt probability that the message is lost.
    ``unavailable_windows``
        ``peer_id -> ((start, end), ...)`` half-open windows on the
        injector's delivery-attempt clock during which the peer does not
        answer (transient unavailability, distinct from churn's
        ``online`` flag: the peer holds its data and recovers by
        itself).
    ``slow_links``
        ``(sender, receiver) -> seconds`` of simulated one-way latency;
        ``link_latency`` is the default for unlisted links.  Latency is
        accumulated on the :class:`FaultSession` (the tracer's
        message/byte series are never affected by slowness alone).
    ``seed``
        Seed of the injector's private RNG.

    The all-default plan is a no-op: :attr:`is_noop` is True and the
    injector stays inactive, keeping the healthy path bit-identical.
    """

    drop_probability: float = 0.0
    unavailable_windows: tuple = ()  # ((peer_id, start, end), ...)
    slow_links: tuple = ()  # ((sender, receiver, seconds), ...)
    link_latency: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.drop_probability < 1.0:
            raise ConfigError(
                f"drop probability must be in [0, 1), got {self.drop_probability}"
            )
        if self.link_latency < 0.0:
            raise ConfigError(f"link latency must be >= 0, got {self.link_latency}")
        for peer_id, start, end in self.unavailable_windows:
            if start < 0 or end < start:
                raise ConfigError(
                    f"bad unavailability window ({start}, {end}) for peer {peer_id}"
                )
        for __, __, seconds in self.slow_links:
            if seconds < 0.0:
                raise ConfigError("slow-link latency must be >= 0")

    @property
    def is_noop(self) -> bool:
        """True when the plan can never alter a delivery."""
        return (
            self.drop_probability == 0.0
            and not self.unavailable_windows
            and not self.slow_links
            and self.link_latency == 0.0
        )

    @classmethod
    def lossy(cls, drop_probability: float, seed: int = 0) -> "FaultPlan":
        """Uniform per-message loss, the PlanetLab-style baseline."""
        return cls(drop_probability=drop_probability, seed=seed)


@dataclass(frozen=True)
class RetryPolicy:
    """How a sender reacts to drops and timeouts.

    ``max_attempts`` bounds deliveries of one message (first send plus
    retries); ``backoff`` grows ``base_backoff * backoff_factor**k``
    capped at ``max_backoff`` and accumulates on the session's simulated
    latency.  ``retry_budget`` caps *total* retries per query, so a
    badly lossy link cannot spend unbounded messages; ``timeout`` is
    the latency cost of detecting an unanswering peer before failing
    over to a replica.
    """

    max_attempts: int = 4
    base_backoff: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    retry_budget: int = 256
    timeout: float = 0.5

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.retry_budget < 0:
            raise ConfigError(f"retry_budget must be >= 0, got {self.retry_budget}")
        if min(self.base_backoff, self.max_backoff, self.timeout) < 0.0:
            raise ConfigError("backoff and timeout values must be >= 0")
        if self.backoff_factor < 1.0:
            raise ConfigError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )

    def backoff(self, attempt: int) -> float:
        """Capped exponential backoff before retry number ``attempt``."""
        return min(
            self.max_backoff,
            self.base_backoff * self.backoff_factor ** max(0, attempt - 1),
        )


@dataclass(frozen=True)
class Completeness:
    """How complete a (possibly degraded) query's answer is.

    ``fraction`` is the covered share of the *targeted* key space: each
    partition of path length ``L`` spans ``2**-L`` of the key space, and
    dark partitions subtract their span from the query's target mass.
    ``dropped_candidates`` counts result rows lost to undeliverable
    ``RESULT``/``DELEGATE`` messages even where partitions were
    reachable, so ``is_partial`` is the one flag to check.
    """

    fraction: float
    dark_partitions: tuple[int, ...] = ()
    dropped_candidates: int = 0
    retries: int = 0
    failovers: int = 0
    dropped_messages: int = 0
    timeouts: int = 0
    simulated_latency: float = 0.0

    @property
    def is_partial(self) -> bool:
        return self.fraction < 1.0 or self.dropped_candidates > 0

    @classmethod
    def complete(cls) -> "Completeness":
        return cls(fraction=1.0)


@dataclass
class FaultSession:
    """Mutable per-query record of what the faults did.

    The engine begins a fresh session per recorded operation and turns
    it into the :class:`Completeness` attached to the operation's
    :class:`~repro.overlay.messages.CostReport`.
    """

    retry_budget_left: int = 0
    retries: int = 0
    failovers: int = 0
    dropped_messages: int = 0
    timeouts: int = 0
    dropped_candidates: int = 0
    simulated_latency: float = 0.0
    #: partition index -> path, for every partition the query targeted.
    targeted: dict[int, str] = field(default_factory=dict)
    #: partition index -> path, for targeted partitions that stayed dark.
    dark: dict[int, str] = field(default_factory=dict)

    def record_target(self, partition) -> None:
        self.targeted[partition.index] = partition.path

    def record_dark(self, partition) -> None:
        self.targeted.setdefault(partition.index, partition.path)
        self.dark[partition.index] = partition.path

    def consume_retry(self) -> bool:
        """Spend one unit of the per-query retry budget."""
        if self.retry_budget_left <= 0:
            return False
        self.retry_budget_left -= 1
        return True

    def completeness(self) -> Completeness:
        targeted_mass = sum(2.0 ** -len(path) for path in self.targeted.values())
        dark_mass = sum(
            2.0 ** -len(path)
            for index, path in self.dark.items()
            if index in self.targeted
        )
        if targeted_mass <= 0.0:
            fraction = 1.0
        else:
            fraction = max(0.0, min(1.0, 1.0 - dark_mass / targeted_mass))
        return Completeness(
            fraction=fraction,
            dark_partitions=tuple(sorted(self.dark)),
            dropped_candidates=self.dropped_candidates,
            retries=self.retries,
            failovers=self.failovers,
            dropped_messages=self.dropped_messages,
            timeouts=self.timeouts,
            simulated_latency=self.simulated_latency,
        )


class FaultInjector:
    """Applies a :class:`FaultPlan` to every delivery attempt.

    Owns a private seeded RNG (the router's draw sequence is never
    perturbed), a monotone delivery-attempt ``clock`` that the plan's
    unavailability windows are expressed against, and the per-query
    :class:`FaultSession`.  An injector built from a no-op plan reports
    ``active == False`` and the router bypasses it entirely — that is
    the bit-identity guarantee the measurement contract relies on.
    """

    def __init__(self, plan: FaultPlan, policy: RetryPolicy | None = None):
        self.plan = plan
        self.policy = policy if policy is not None else RetryPolicy()
        self.rng = random.Random(plan.seed)
        self.clock = 0
        self._windows: dict[int, tuple[tuple[int, int], ...]] = {}
        for peer_id, start, end in plan.unavailable_windows:
            self._windows.setdefault(peer_id, ())
            self._windows[peer_id] += ((start, end),)
        self._slow: dict[tuple[int, int], float] = {
            (sender, receiver): seconds
            for sender, receiver, seconds in plan.slow_links
        }
        self.session = FaultSession(retry_budget_left=self.policy.retry_budget)

    @property
    def active(self) -> bool:
        """False for no-op plans: the delivery path must not change."""
        return not self.plan.is_noop

    def begin_session(self) -> FaultSession:
        """Start a fresh per-query fault record (engine entry points)."""
        self.session = FaultSession(retry_budget_left=self.policy.retry_budget)
        return self.session

    def attempt(self, sender: int, receiver: int) -> DeliveryOutcome:
        """Adjudicate one delivery attempt (advances the clock)."""
        self.clock += 1
        windows = self._windows.get(receiver)
        if windows:
            clock = self.clock
            for start, end in windows:
                if start <= clock < end:
                    return DeliveryOutcome.UNAVAILABLE
        p = self.plan.drop_probability
        if p > 0.0 and self.rng.random() < p:
            return DeliveryOutcome.DROPPED
        return DeliveryOutcome.DELIVERED

    def link_latency(self, sender: int, receiver: int) -> float:
        """Simulated one-way latency of one delivery attempt."""
        return self._slow.get((sender, receiver), self.plan.link_latency)
