"""Per-stage circuit breaker for the guarded prediction chain.

Classic three-state breaker:

* **closed** — calls flow normally; consecutive strikes are counted.
* **open** — after ``failure_threshold`` consecutive strikes, or one
  :meth:`~CircuitBreaker.trip`, the stage is skipped outright (no call
  is made) until ``cooldown_seconds`` have elapsed.
* **half-open** — after the cooldown exactly one probe call is admitted;
  every other caller is refused until the probe reports. Success closes
  the breaker, a strike re-opens it (and restarts the cooldown), and a
  probe that ends without a verdict (:meth:`~CircuitBreaker.release`,
  e.g. an admission shed) hands the slot to the next caller.

A call admitted before a trip is not a probe: its late verdict leaves
an open breaker open, with its cooldown and cause unchanged.

Every trip records its cause, one of :data:`TRIP_CAUSES`: ``failures``
(the call raised or returned junk), ``deadline`` (the call overran its
request deadline) or ``drift`` (tripped directly by an accuracy drift
detector). The RAAL stage's breaker is the guard's one learned-stage
gate.

The breaker is thread-safe, and its clock is injectable so tests drive
state transitions deterministically, without sleeping.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass
from typing import Callable

from repro.errors import ReproError

__all__ = ["BreakerConfig", "CircuitBreaker", "CLOSED", "OPEN", "HALF_OPEN",
           "TRIP_CAUSES"]

CLOSED = "closed"
OPEN = "open"
HALF_OPEN = "half_open"

#: Why a breaker opened.
TRIP_CAUSES = ("failures", "deadline", "drift")


@dataclass(frozen=True)
class BreakerConfig:
    """Trip threshold and recovery cooldown of one breaker.

    One cooldown serves every trip cause: 5 s caps a stage that keeps
    failing at one probe per 5 s and brings a recovered one back within
    seconds (docs/OPERATIONS.md explains the choice).
    """

    failure_threshold: int = 3
    cooldown_seconds: float = 5.0

    def __post_init__(self) -> None:
        if self.failure_threshold < 1:
            raise ReproError(
                f"failure_threshold must be >= 1, got {self.failure_threshold}")
        if self.cooldown_seconds < 0:
            raise ReproError("cooldown_seconds must be non-negative")


class CircuitBreaker:
    """Tracks the health of one fallback-chain stage.

    ``on_transition(old, new)`` is invoked whenever the state actually
    changes (never on same-state updates), with :attr:`cause` already
    set on a trip — the telemetry layer uses it to emit
    breaker-transition events without the breaker knowing about
    telemetry.
    """

    def __init__(self, config: BreakerConfig | None = None,
                 clock: Callable[[], float] = time.monotonic,
                 on_transition: Callable[[str, str], None] | None = None) -> None:
        self.config = config or BreakerConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self._state = CLOSED
        self._cause: str | None = None
        self._consecutive_failures = 0
        self._opened_at = 0.0
        self._probe: int | None = None  # thread holding the half-open slot
        self.on_transition = on_transition

    def _set_state(self, new_state: str) -> None:
        old_state, self._state = self._state, new_state
        if old_state != new_state and self.on_transition is not None:
            self.on_transition(old_state, new_state)

    def _open(self, cause: str) -> None:
        self._probe = None
        self._cause = cause
        self._opened_at = self._clock()
        self._set_state(OPEN)

    @property
    def state(self) -> str:
        """Current state (``closed`` / ``open`` / ``half_open``).

        Reading the state does not advance it; only :meth:`allow` moves
        an open breaker to half-open once the cooldown has elapsed.
        """
        return self._state

    @property
    def cause(self) -> str | None:
        """Cause of the most recent trip (``None`` before the first)."""
        return self._cause

    @property
    def consecutive_failures(self) -> int:
        """Strikes recorded since the last success."""
        return self._consecutive_failures

    def allow(self) -> bool:
        """Whether the protected call may run now.

        An open breaker turns half-open once the cooldown has elapsed;
        a half-open breaker admits one probe at a time.
        """
        with self._lock:
            if self._state == OPEN:
                if (self._clock() - self._opened_at
                        < self.config.cooldown_seconds):
                    return False
                self._set_state(HALF_OPEN)
            if self._state == HALF_OPEN:
                if self._probe is not None:
                    return False
                self._probe = threading.get_ident()
            return True

    def release(self) -> None:
        """An admitted call ended without a verdict (it never ran).

        Frees the half-open probe slot when the calling thread holds it,
        so the next caller probes instead of the gate staying open.
        """
        with self._lock:
            if self._probe == threading.get_ident():
                self._probe = None

    def record_success(self) -> None:
        """Protected call succeeded: close, if the caller is no late call
        (closed, or holding the half-open probe slot)."""
        with self._lock:
            if self._state == OPEN or (
                    self._state == HALF_OPEN
                    and self._probe != threading.get_ident()):
                return
            self._probe = None
            self._consecutive_failures = 0
            self._set_state(CLOSED)

    def record_failure(self, cause: str = "failures") -> None:
        """A strike: count it, trip or re-open as needed (not while open)."""
        with self._lock:
            if self._state == OPEN:
                return
            self._probe = None
            self._consecutive_failures += 1
            if (self._state == HALF_OPEN or self._consecutive_failures
                    >= self.config.failure_threshold):
                self._open(cause)

    def trip(self, cause: str) -> None:
        """Open now, whatever the strike count (no-op while open)."""
        with self._lock:
            if self._state != OPEN:
                self._open(cause)

    def reset(self) -> None:
        """Force the breaker back to pristine closed state."""
        with self._lock:
            self._probe = None
            self._cause = None
            self._consecutive_failures = 0
            self._opened_at = 0.0
            self._set_state(CLOSED)
