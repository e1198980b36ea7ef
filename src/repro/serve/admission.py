"""Admission control: bounded in-flight queries, predicted-overload 429s.

The engine serializes query execution (per-query cost accounting needs
exclusive access to the network's :class:`~repro.overlay.messages.
MessageTracer`), so the service is a single-server queue: admitted
requests wait their turn for the event-loop thread, which runs the
engine one call at a time.  An open stream holds its slot until its
last chunk is read, though its engine call has already ended.
Admission control bounds that queue two ways:

* a hard **capacity** cap on in-flight requests (admitted, not yet
  finished) — classic bounded-queue back-pressure;
* a **predicted-overload** cap: every similarity-shaped request carries
  a predicted message cost from the engine's
  :class:`~repro.query.cost.StrategyCostModel`, and the controller
  rejects work that would push the *outstanding predicted cost* past a
  configured budget while the server is already busy.  An expensive
  query on an idle server is always admitted — the budget sheds load,
  it never starves a query class.

Rejections carry a ``Retry-After`` estimate derived from the observed
service rate: an exponentially-weighted average of seconds per predicted
message (updated as requests finish) times the outstanding predicted
cost, clamped to ``[1, MAX_RETRY_AFTER]`` whole seconds.

The controller is deliberately lock-free plain Python: every mutation
happens on the event-loop thread, which is also where the engine runs
(handlers admit before they call the engine and finish when the call or
the stream ends), so no further synchronization is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.core.errors import ConfigError

#: Upper clamp on the advertised ``Retry-After`` (seconds).
MAX_RETRY_AFTER = 60

#: Starting estimate of seconds per predicted message, used until the
#: first completions feed the EWMA (a deliberately generous figure so a
#: cold server does not advertise sub-second retries it cannot honor).
DEFAULT_SECONDS_PER_MESSAGE = 0.001

#: Starting estimate of per-request service seconds (capacity path).
DEFAULT_SERVICE_SECONDS = 0.05

#: EWMA smoothing factor for the service-rate estimates.
EWMA_ALPHA = 0.2


@dataclass
class Ticket:
    """One admitted request's claim on the controller's budgets."""

    controller: "AdmissionController"
    predicted_messages: float
    finished: bool = False

    def finish(self, elapsed_seconds: float | None = None) -> None:
        """Release the claim; feeds the service-rate EWMA when timed."""
        if self.finished:
            return
        self.finished = True
        self.controller._release(self, elapsed_seconds)


@dataclass
class AdmissionDecision:
    """Outcome of one admission attempt."""

    admitted: bool
    reason: str | None = None  # "capacity" | "predicted-overload"
    retry_after: int = 0  # whole seconds, >= 1 on rejection
    ticket: Ticket | None = None


@dataclass
class AdmissionController:
    """Bounded-in-flight + predicted-cost admission for one service.

    ``max_inflight``
        Hard cap on admitted-but-unfinished requests (>= 1).
    ``cost_budget``
        Maximum *outstanding* predicted message cost; ``0`` disables the
        predicted-overload path and leaves only the capacity cap.
    """

    max_inflight: int = 8
    cost_budget: float = 0.0

    inflight: int = 0
    outstanding_cost: float = 0.0
    admitted_total: int = 0
    completed_total: int = 0
    rejected_capacity: int = 0
    rejected_overload: int = 0

    _seconds_per_message: float = field(default=0.0, repr=False)
    _service_seconds: float = field(default=0.0, repr=False)

    def __post_init__(self) -> None:
        if self.max_inflight < 1:
            raise ConfigError(
                f"max_inflight must be >= 1, got {self.max_inflight}"
            )
        if self.cost_budget < 0:
            raise ConfigError(
                f"cost_budget must be >= 0, got {self.cost_budget}"
            )

    # -- admission ----------------------------------------------------------------

    def admit(self, predicted_messages: float = 0.0) -> AdmissionDecision:
        """Admit or reject one request predicted to cost that many messages."""
        if self.inflight >= self.max_inflight:
            self.rejected_capacity += 1
            return AdmissionDecision(
                admitted=False,
                reason="capacity",
                retry_after=self.retry_after(),
            )
        if (
            self.cost_budget > 0
            and self.inflight > 0
            and self.outstanding_cost + predicted_messages > self.cost_budget
        ):
            self.rejected_overload += 1
            return AdmissionDecision(
                admitted=False,
                reason="predicted-overload",
                retry_after=self.retry_after(),
            )
        self.inflight += 1
        self.outstanding_cost += predicted_messages
        self.admitted_total += 1
        return AdmissionDecision(
            admitted=True,
            ticket=Ticket(self, predicted_messages),
        )

    def retry_after(self) -> int:
        """Whole seconds a rejected client should wait before retrying.

        The expected drain time of the outstanding work under the
        observed service rate; at least 1 second (HTTP ``Retry-After``
        is integral) and clamped to :data:`MAX_RETRY_AFTER`.
        """
        per_message = self._seconds_per_message or DEFAULT_SECONDS_PER_MESSAGE
        per_request = self._service_seconds or DEFAULT_SERVICE_SECONDS
        drain = max(
            self.outstanding_cost * per_message,
            self.inflight * per_request,
        )
        return max(1, min(MAX_RETRY_AFTER, math.ceil(drain)))

    # -- bookkeeping --------------------------------------------------------------

    def _release(self, ticket: Ticket, elapsed_seconds: float | None) -> None:
        self.inflight -= 1
        self.outstanding_cost = max(
            0.0, self.outstanding_cost - ticket.predicted_messages
        )
        self.completed_total += 1
        if elapsed_seconds is None or elapsed_seconds < 0:
            return
        self._service_seconds = _ewma(self._service_seconds, elapsed_seconds)
        if ticket.predicted_messages > 0:
            self._seconds_per_message = _ewma(
                self._seconds_per_message,
                elapsed_seconds / ticket.predicted_messages,
            )

    def snapshot(self) -> dict:
        """JSON-ready counters for the ``/stats`` endpoint."""
        return {
            "max_inflight": self.max_inflight,
            "cost_budget": self.cost_budget,
            "inflight": self.inflight,
            "outstanding_predicted_messages": round(self.outstanding_cost, 1),
            "admitted": self.admitted_total,
            "completed": self.completed_total,
            "rejected_capacity": self.rejected_capacity,
            "rejected_overload": self.rejected_overload,
        }


def _ewma(current: float, sample: float) -> float:
    if current == 0.0:
        return sample
    return (1.0 - EWMA_ALPHA) * current + EWMA_ALPHA * sample
