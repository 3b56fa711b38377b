"""Circuit breaker + health score: the service's resilience policy.

Retries and fallbacks (``repro.service.admission``) handle *isolated*
failures; a circuit breaker handles *correlated* ones.  When the primary
predictor fails repeatedly — a solver that stops converging near
saturation, a model mid-recalibration, an injected chaos fault window —
continuing to send every request through the failing path wastes a pool
slot, a deadline and up to ``max_retries`` solves per request before the
fallback finally answers.  The breaker converts that into an immediate,
metered degradation and then *probes* its way back.

State machine (the classic three states, clock-injected so transitions
are exactly testable)::

    CLOSED ──(failure_threshold consecutive failures)──▶ OPEN
    OPEN ──(recovery_time_s elapsed; next allow() is a probe)──▶ HALF_OPEN
    HALF_OPEN ──(half_open_probes consecutive probe successes)──▶ CLOSED
    HALF_OPEN ──(any probe failure)──▶ OPEN   (recovery timer restarts)

Alongside the hard state sits a soft **health score**: an exponentially
weighted moving average of outcomes (1 = success, 0 = failure) that the
metrics export publishes, giving operators a leading indicator before
the threshold trips and a trailing one while the breaker recovers.
"""

from __future__ import annotations

import enum
import threading
from dataclasses import dataclass
from typing import Callable

from repro.util.clock import SYSTEM_CLOCK, Clock
from repro.util.errors import ReproError
from repro.util.validation import check_positive_int, require

__all__ = ["BreakerState", "BreakerConfig", "CircuitOpenError", "CircuitBreaker"]


class BreakerState(enum.Enum):
    """The breaker's three states (values double as metric gauge levels)."""

    CLOSED = "closed"
    HALF_OPEN = "half_open"
    OPEN = "open"


#: Gauge encoding of the state for flat metrics export.
_STATE_LEVEL = {BreakerState.CLOSED: 0.0, BreakerState.HALF_OPEN: 1.0, BreakerState.OPEN: 2.0}


class CircuitOpenError(ReproError):
    """The breaker is open and no fallback predictor is registered."""


@dataclass(frozen=True)
class BreakerConfig:
    """Tunables of one :class:`CircuitBreaker`.

    ``failure_threshold`` consecutive primary failures open the circuit;
    after ``recovery_time_s`` the next request is admitted as a probe
    (HALF_OPEN), and ``half_open_probes`` consecutive probe successes
    re-close it.  ``health_alpha`` is the EWMA weight of the newest
    outcome in the health score (higher = more reactive).
    """

    failure_threshold: int = 5
    recovery_time_s: float = 30.0
    half_open_probes: int = 1
    health_alpha: float = 0.2

    def __post_init__(self) -> None:
        """Validate the policy."""
        check_positive_int(self.failure_threshold, "failure_threshold")
        require(self.recovery_time_s > 0.0, "recovery_time_s must be positive")
        check_positive_int(self.half_open_probes, "half_open_probes")
        require(0.0 < self.health_alpha <= 1.0, "health_alpha must be in (0, 1]")


class CircuitBreaker:
    """A thread-safe three-state circuit breaker with a health score.

    Callers bracket the protected operation with :meth:`allow` (before)
    and exactly one of :meth:`record_success` / :meth:`record_failure` /
    :meth:`cancel` (after); ``allow() == False`` means degrade
    immediately without touching the primary, and ``cancel`` is the
    escape hatch for an admitted caller that never actually attempted
    the primary.  ``on_transition(old, new, at_s)`` fires outside the lock
    on every state change, which is where the service hangs its metrics
    counters and trace instants.
    """

    def __init__(
        self,
        config: BreakerConfig | None = None,
        *,
        clock: Clock = SYSTEM_CLOCK,
        on_transition: Callable[[BreakerState, BreakerState, float], None] | None = None,
    ):
        self.config = config if config is not None else BreakerConfig()
        self._clock = clock
        self._on_transition = on_transition
        self._lock = threading.Lock()
        self._state = BreakerState.CLOSED
        self._consecutive_failures = 0
        self._probes_in_flight = 0
        self._probe_successes = 0
        self._opened_at_s = 0.0
        self._health = 1.0
        self._transitions: list[tuple[float, str, str]] = []
        self._rejected_total = 0

    # -- queries ---------------------------------------------------------------

    @property
    def state(self) -> BreakerState:
        """Current state (OPEN is reported even before the next probe)."""
        with self._lock:
            return self._state

    @property
    def state_level(self) -> float:
        """The state as a gauge level (0 closed, 1 half-open, 2 open)."""
        with self._lock:
            return _STATE_LEVEL[self._state]

    @property
    def health_score(self) -> float:
        """EWMA of outcomes in [0, 1]; 1.0 until the first failure."""
        with self._lock:
            return self._health

    @property
    def rejected_total(self) -> int:
        """Requests turned away by :meth:`allow` since construction."""
        with self._lock:
            return self._rejected_total

    def transitions(self) -> list[tuple[float, str, str]]:
        """Every ``(at_s, from_state, to_state)`` transition so far."""
        with self._lock:
            return list(self._transitions)

    # -- the protected-call protocol -------------------------------------------

    def allow(self) -> bool:
        """Whether the caller may attempt the primary right now.

        CLOSED always admits.  OPEN admits nothing until
        ``recovery_time_s`` has elapsed, then transitions to HALF_OPEN
        and admits up to ``half_open_probes`` concurrent probes.  Every
        admitted HALF_OPEN call counts as a probe and **must** be
        matched by a ``record_*`` call.
        """
        now_s = self._clock.monotonic_s()
        fired: tuple[BreakerState, BreakerState] | None = None
        # State mutations stay lexically inside the `with self._lock:` block
        # (no lock-held helper methods) so REPRO-LOCK001 can verify them.
        with self._lock:
            if self._state is BreakerState.CLOSED:
                return True
            if self._state is BreakerState.OPEN:
                if now_s - self._opened_at_s < self.config.recovery_time_s:
                    self._rejected_total += 1
                    return False
                fired = (self._state, BreakerState.HALF_OPEN)
                self._state = BreakerState.HALF_OPEN
                self._transitions.append((now_s, fired[0].value, fired[1].value))
                self._probes_in_flight = 0
                self._probe_successes = 0
            # HALF_OPEN: admit while probe slots remain.
            if self._probes_in_flight < self.config.half_open_probes:
                self._probes_in_flight += 1
                admitted = True
            else:
                self._rejected_total += 1
                admitted = False
        self._notify(fired, now_s)
        return admitted

    def record_success(self) -> None:
        """Report one successful primary call."""
        now_s = self._clock.monotonic_s()
        alpha = self.config.health_alpha
        fired: tuple[BreakerState, BreakerState] | None = None
        with self._lock:
            self._health = (1.0 - alpha) * self._health + alpha * 1.0
            if self._state is BreakerState.CLOSED:
                self._consecutive_failures = 0
            elif self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)
                self._probe_successes += 1
                if self._probe_successes >= self.config.half_open_probes:
                    fired = (self._state, BreakerState.CLOSED)
                    self._state = BreakerState.CLOSED
                    self._transitions.append((now_s, fired[0].value, fired[1].value))
                    self._consecutive_failures = 0
        self._notify(fired, now_s)

    def cancel(self) -> None:
        """Withdraw an admitted attempt without recording an outcome.

        For callers that :meth:`allow` admitted but that never started a
        fresh primary execution — in the service, a request whose work
        coalesced onto an already-in-flight computation (possibly one
        begun before the circuit even opened).  Hands a HALF_OPEN probe
        slot back so recorded outcomes stay one-per-execution; a no-op
        in CLOSED (nothing was reserved) and in OPEN (a probe failure
        already reset the slots).
        """
        with self._lock:
            if self._state is BreakerState.HALF_OPEN:
                self._probes_in_flight = max(0, self._probes_in_flight - 1)

    def record_failure(self) -> None:
        """Report one failed primary call (transient error or deadline miss)."""
        now_s = self._clock.monotonic_s()
        alpha = self.config.health_alpha
        fired: tuple[BreakerState, BreakerState] | None = None
        with self._lock:
            self._health = (1.0 - alpha) * self._health
            if self._state is BreakerState.CLOSED:
                self._consecutive_failures += 1
                if self._consecutive_failures >= self.config.failure_threshold:
                    fired = (self._state, BreakerState.OPEN)
            elif self._state is BreakerState.HALF_OPEN:
                # One failed probe sends it straight back to OPEN.
                fired = (self._state, BreakerState.OPEN)
            if fired is not None:
                self._state = BreakerState.OPEN
                self._transitions.append((now_s, fired[0].value, fired[1].value))
                self._opened_at_s = now_s  # (re)starts the recovery timer
                self._probes_in_flight = 0
                self._probe_successes = 0
        self._notify(fired, now_s)

    # -- internals -------------------------------------------------------------

    def _notify(
        self, fired: tuple[BreakerState, BreakerState] | None, now_s: float
    ) -> None:
        """Invoke the transition callback outside the lock."""
        if fired is not None and self._on_transition is not None:
            self._on_transition(fired[0], fired[1], now_s)
