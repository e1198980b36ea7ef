"""Discrete-event latency replay of a recorded message log.

The synchronous simulator charges messages in *causal emission order*: a
peer only ever sends a message after the messages that triggered it were
delivered to it.  That ordering is exactly what a discrete-event replay
needs — no timestamps have to be recorded up front:

* every peer carries a **ready time** (when its latest causal trigger
  arrived; the initiator starts at 0);
* a logged message departs at its sender's current ready time, travels
  one sampled hop latency (plus bandwidth for its payload), and advances
  the *receiver's* ready time to its arrival if later;
* sends do not advance the sender — a peer fanning out N messages emits
  them in parallel, so forks cost one hop, not N (and joins fall out of
  the ``max`` at the receiver).

``DELEGATE`` messages ride along the routed walk that precedes them in
the paper's flow (the plan travels *in* the routing message), so they add
bandwidth but no extra hop.  Local CPU time is not replayed — the
analytic :mod:`evaluation.latency` model covers the naive strategy's
comparison cost, which dwarfs everything else there.

Usage::

    tracer = MessageTracer(record_log=True)
    network = PGridNetwork(..., tracer=tracer)
    ...
    tracer.reset()
    similar(ctx, "apple", TEXT_ATTR, 1)
    outcome = replay_latency(tracer.log, initiator_id=peer_id)
    print(outcome.completion_ms)
"""

from __future__ import annotations

import math
import random
from collections import defaultdict
from collections.abc import Sequence
from dataclasses import dataclass, field

from repro.overlay.messages import Message, MessageType


@dataclass(frozen=True)
class LatencyDistribution:
    """Log-normal hop latency plus linear bandwidth cost.

    Hop latencies in a wide-area overlay are heavy-tailed: ``median_ms``
    is the log-normal's median, ``sigma`` its shape (0 = deterministic),
    and ``per_kb_ms`` adds payload transfer time.  All sampling flows
    from one seeded ``random.Random``, so replays are reproducible
    bit-for-bit.  A wide-area default: 50 ms median, moderate spread.
    """

    median_ms: float = 50.0
    sigma: float = 0.4
    per_kb_ms: float = 0.2

    def sample(self, rng: random.Random, payload_bytes: int = 0) -> float:
        """One hop's latency in milliseconds."""
        if self.sigma > 0:
            base = self.median_ms * math.exp(rng.gauss(0.0, self.sigma))
        else:
            base = self.median_ms
        return base + self.per_kb_ms * payload_bytes / 1024.0


@dataclass
class ReplayResult:
    """Timing of one replayed query."""

    completion_ms: float
    messages: int
    makespan_by_phase: dict[str, float] = field(default_factory=dict)


def replay_latency(
    log: Sequence[Message],
    initiator_id: int,
    model: LatencyDistribution | None = None,
    seed: int = 0,
) -> ReplayResult:
    """Replay a message log into a completion time.

    ``completion_ms`` is the initiator's final ready time — the moment the
    last result reached it (or, for queries whose results never return to
    the initiator, the time its own last action completed).
    """
    model = model if model is not None else LatencyDistribution()
    rng = random.Random(seed)
    ready: dict[int, float] = defaultdict(float)
    phase_makespan: dict[str, float] = defaultdict(float)
    for message in log:
        departure = ready[message.sender]
        if message.type is MessageType.DELEGATE:
            # The plan travels inside the routing message; bandwidth only.
            latency = model.per_kb_ms * message.payload_bytes / 1024.0
        else:
            latency = model.sample(rng, message.payload_bytes)
        arrival = departure + latency
        if arrival > ready[message.receiver]:
            ready[message.receiver] = arrival
        if arrival > phase_makespan[message.phase]:
            phase_makespan[message.phase] = arrival
    completion = ready[initiator_id]
    if completion == 0.0 and log:
        completion = max(ready.values())
    return ReplayResult(
        completion_ms=completion,
        messages=len(log),
        makespan_by_phase=dict(phase_makespan),
    )


def replay_operation(
    network,
    operation,
    initiator_id: int,
    model: LatencyDistribution | None = None,
    seed: int = 0,
) -> tuple[object, ReplayResult]:
    """Run ``operation()`` with log recording and replay its latency.

    Temporarily switches the network's tracer into logging mode, clears
    the log window around the call, and returns ``(operation result,
    replay result)``.
    """
    tracer = network.tracer
    previous_mode = tracer.record_log
    log_start = len(tracer.log)
    tracer.record_log = True
    try:
        value = operation()
    finally:
        tracer.record_log = previous_mode
    window = tracer.log[log_start:]
    if not previous_mode:
        del tracer.log[log_start:]
    return value, replay_latency(window, initiator_id, model, seed)
