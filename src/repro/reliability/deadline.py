"""Request deadlines: a latency budget carried through the predict path.

A :class:`Deadline` is an absolute expiry on an injectable monotonic
clock. It travels with one request from the public predictor API down
into :class:`~repro.core.execution.BucketExecutor`, which runs a
deadline-carrying forward on its worker pool, waits for it at most the
remaining budget, and checks the deadline at every bucket start.
Expiry raises the typed :class:`~repro.errors.DeadlineExceeded`, which
the guarded chain maps to the analytic GPSJ fallback — a late answer
from the learned model is treated exactly like a failed one.

Deadlines are cheap value objects: create one per request
(:meth:`Deadline.after` / :meth:`Deadline.from_ms`), never reuse them
across requests.
"""

from __future__ import annotations

import time
from typing import Callable

from repro.errors import DeadlineExceeded, ReproError

__all__ = ["Deadline", "DeadlineExceeded"]


class Deadline:
    """One request's latency budget on a monotonic clock.

    Parameters
    ----------
    expires_at:
        Absolute expiry in the clock's timebase.
    clock:
        Injectable monotonic clock (tests drive expiry without
        sleeping).
    budget_seconds:
        The original budget, kept for error messages and accounting.
    """

    __slots__ = ("expires_at", "budget_seconds", "_clock")

    def __init__(self, expires_at: float,
                 clock: Callable[[], float] = time.monotonic,
                 budget_seconds: float | None = None) -> None:
        self.expires_at = float(expires_at)
        self.budget_seconds = budget_seconds
        self._clock = clock

    @classmethod
    def after(cls, seconds: float,
              clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline expiring ``seconds`` from now."""
        if seconds < 0:
            raise ReproError(f"deadline budget must be >= 0, got {seconds}")
        return cls(clock() + seconds, clock=clock, budget_seconds=float(seconds))

    @classmethod
    def from_ms(cls, milliseconds: float,
                clock: Callable[[], float] = time.monotonic) -> "Deadline":
        """A deadline expiring ``milliseconds`` from now."""
        return cls.after(milliseconds / 1e3, clock=clock)

    def remaining(self) -> float:
        """Seconds left before expiry (may be negative once expired)."""
        return self.expires_at - self._clock()

    def expired(self) -> bool:
        """Whether the budget has been consumed."""
        return self._clock() >= self.expires_at

    def check(self, where: str = "") -> None:
        """Raise :class:`DeadlineExceeded` if the deadline has passed.

        ``where`` names the checkpoint (e.g. ``"between buckets"``) so
        provenance reasons say where the budget ran out.
        """
        if self.expired():
            budget = (f"{self.budget_seconds * 1e3:.0f}ms budget"
                      if self.budget_seconds is not None else "deadline")
            at = f" at {where}" if where else ""
            raise DeadlineExceeded(
                f"{budget} exceeded{at} "
                f"(overrun {-self.remaining() * 1e3:.1f}ms)")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"Deadline(remaining={self.remaining():.4f}s, "
                f"budget={self.budget_seconds})")
