"""Adaptive precision-degradation ladder: trade accuracy for headroom.

Under sustained load the cheapest way to restore latency headroom is to
serve from a cheaper precision tier. :class:`DegradationLadder` is a
small hysteretic state machine over the engine's tiers:

    HEALTHY (f64) → DEGRADED_F32 → DEGRADED_INT8 → FALLBACK (analytic)

* **Step down** when the rolling p99 of learned-model latency exceeds
  ``degrade_p99`` (with at least ``min_samples`` observations at the
  current rung).
* **Step up** hysteretically: only after ``hold_seconds`` at the
  current rung *and* a rolling p99 below ``recover_p99`` (default half
  the degrade threshold) — so the ladder does not flap around the
  threshold.
* **FALLBACK** means "skip the learned model entirely" (the guarded
  chain serves GPSJ/heuristic). It auto-probes back up to the int8
  rung after ``hold_seconds``, so a recovered system climbs out even
  though no learned-model samples accrue while fully degraded.
* **Breaker coupling**: when the RAAL stage's circuit breaker opens the
  ladder drops straight to FALLBACK; the breaker's own half-open probe
  machinery then governs re-entry.
* **Accuracy quarantine**: the guard's accuracy canary (a
  :class:`~repro.reliability.shadow.ShadowScorer`) trips the ladder
  back *up* one rung when a degraded tier drifts past its accuracy
  budget, and quarantines the drifting rung for
  ``quarantine_seconds`` so latency pressure cannot immediately push
  the ladder back onto a tier that is returning wrong answers.

Every transition updates the ``health.state`` gauge (the rung index:
0 = healthy … 3 = fallback) and emits a ``ladder_transition`` event.
The window is cleared on every transition so each rung is judged only
by its own samples.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro import obs
from repro.errors import ReproError
from repro.reliability.circuit import HALF_OPEN, OPEN

__all__ = ["LadderConfig", "DegradationLadder", "LADDER_STATES"]

#: Rung order: state name → precision tier served at that rung
#: (``None`` = skip the learned model entirely).
LADDER_STATES: tuple[tuple[str, str | None], ...] = (
    ("healthy", "f64"),
    ("degraded_f32", "f32"),
    ("degraded_int8", "int8"),
    ("fallback", None),
)


@dataclass(frozen=True)
class LadderConfig:
    """Thresholds and hysteresis of one degradation ladder."""

    #: Rolling p99 (seconds) above which the ladder steps down a rung.
    degrade_p99: float = 0.050
    #: Rolling p99 below which the ladder may step back up; defaults to
    #: ``degrade_p99 / 2`` (hysteresis band).
    recover_p99: float | None = None
    #: Rolling window size (latency samples) per rung.
    window: int = 64
    #: Samples required at the current rung before any transition.
    min_samples: int = 16
    #: Minimum dwell time between transitions; also the FALLBACK
    #: auto-probe interval.
    hold_seconds: float = 2.0
    #: How long an accuracy-tripped rung stays off-limits.
    quarantine_seconds: float = 30.0

    def __post_init__(self) -> None:
        if self.degrade_p99 <= 0:
            raise ReproError(f"degrade_p99 must be > 0, got {self.degrade_p99}")
        recover = self.effective_recover_p99
        if recover >= self.degrade_p99:
            raise ReproError(
                f"recover_p99 ({recover}) must be below degrade_p99 "
                f"({self.degrade_p99}) for hysteresis")
        if self.window < self.min_samples or self.min_samples < 1:
            raise ReproError(
                f"need window >= min_samples >= 1, got window={self.window}, "
                f"min_samples={self.min_samples}")
        if self.hold_seconds < 0 or self.quarantine_seconds < 0:
            raise ReproError("hold/quarantine durations must be non-negative")

    @property
    def effective_recover_p99(self) -> float:
        """The step-up threshold (explicit, or half the degrade bar)."""
        return (self.recover_p99 if self.recover_p99 is not None
                else self.degrade_p99 / 2.0)


@dataclass(frozen=True)
class LadderTransition:
    """One recorded state change (for tests, doctor, and benchmarks)."""

    at: float
    old: str
    new: str
    reason: str


class DegradationLadder:
    """Hysteretic health state machine over the precision tiers."""

    def __init__(self, config: LadderConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or LadderConfig()
        self._clock = clock
        self._lock = threading.RLock()
        self._rung = 0
        self._samples: deque[float] = deque(maxlen=self.config.window)
        self._p99: float | None = None   # of _samples; None = stale
        self._last_transition = clock()
        self._max_rung = len(LADDER_STATES) - 1   # quarantine ceiling
        self._quarantine_expires = -np.inf
        self._breaker_open = False
        self.history: list[LadderTransition] = []
        obs.set_gauge("health.state", self._rung,
                      help="Degradation ladder rung (0=healthy..3=fallback)")

    # -- introspection -----------------------------------------------------
    @property
    def state(self) -> str:
        """Current rung name (``healthy`` … ``fallback``)."""
        return LADDER_STATES[self._rung][0]

    @property
    def rung(self) -> int:
        """Current rung index (0 = healthy … 3 = fallback)."""
        return self._rung

    def precision(self) -> str | None:
        """Tier to serve the next request at (``None`` = skip RAAL).

        Reading the tier also advances time-driven transitions (the
        FALLBACK auto-probe), so a fully degraded ladder climbs back
        even when no learned-model latencies are being recorded.
        """
        with self._lock:
            self._evaluate()
            return LADDER_STATES[self._rung][1]

    # -- inputs ------------------------------------------------------------
    def record(self, latency_seconds: float) -> None:
        """Feed one learned-model latency sample and re-evaluate."""
        with self._lock:
            self._samples.append(float(latency_seconds))
            self._p99 = None
            self._evaluate()

    def trip_accuracy(self, reason: str) -> None:
        """Canary drift breach: step *up* and quarantine the bad rung."""
        with self._lock:
            if self._rung == 0:
                return
            now = self._clock()
            self._max_rung = self._rung - 1
            self._quarantine_expires = now + self.config.quarantine_seconds
            obs.inc("ladder.accuracy_trips_total",
                    help="Canary-driven precision promotions")
            self._transition(self._rung - 1, f"accuracy trip: {reason}")

    def trip_drift(self, reason: str) -> None:
        """Model-wide accuracy drift: drop to FALLBACK (analytic serve).

        Unlike :meth:`trip_accuracy` — which blames the *degraded tier*
        and promotes back toward f64 — a drift trip means the learned
        model itself has stopped matching reality, so no precision tier
        is trustworthy and the chain should serve its analytic
        fallback. The rung is not pinned: the regular FALLBACK
        auto-probe climbs back after ``hold_seconds``, and as long as
        the feedback stream keeps reporting drift the guard re-trips,
        producing a probe/re-trip cycle until the model is fixed or
        retrained.
        """
        with self._lock:
            bottom = len(LADDER_STATES) - 1
            if self._rung == bottom:
                return
            obs.inc("ladder.drift_trips_total",
                    help="Drift-detector-driven drops to fallback")
            self._transition(bottom, f"drift trip: {reason}")

    def on_breaker_transition(self, old: str, new: str) -> None:
        """Couple the RAAL breaker's state into the ladder.

        An open breaker means the learned model is failing outright —
        no tier will help — so the ladder pins itself to FALLBACK. The
        breaker's half-open probe releases the pin (stepping to the
        int8 rung) so a successful probe can climb the ladder back.
        """
        with self._lock:
            if new == OPEN:
                self._breaker_open = True
                if self._rung != len(LADDER_STATES) - 1:
                    self._transition(len(LADDER_STATES) - 1, "breaker open")
            elif old == OPEN and new == HALF_OPEN:
                self._breaker_open = False
                if self._rung == len(LADDER_STATES) - 1:
                    self._transition(len(LADDER_STATES) - 2,
                                     "breaker half-open probe")
            else:
                self._breaker_open = False

    # -- the state machine -------------------------------------------------
    def _evaluate(self) -> None:
        if self._breaker_open:
            return  # pinned to FALLBACK until the breaker probes
        now = self._clock()
        if now >= self._quarantine_expires:
            self._max_rung = len(LADDER_STATES) - 1
        if now - self._last_transition < self.config.hold_seconds:
            return
        bottom = len(LADDER_STATES) - 1
        if self._rung == bottom:
            # Fully degraded: no learned-model samples accrue, so probe
            # back up on dwell time alone.
            self._transition(bottom - 1, "fallback probe after hold")
            return
        if len(self._samples) < self.config.min_samples:
            return
        if self._p99 is None:
            self._p99 = float(np.percentile(np.asarray(self._samples), 99))
        p99 = self._p99
        if p99 > self.config.degrade_p99 and self._rung < self._max_rung:
            self._transition(
                self._rung + 1,
                f"p99 {p99 * 1e3:.1f}ms > {self.config.degrade_p99 * 1e3:.1f}ms")
        elif p99 < self.config.effective_recover_p99 and self._rung > 0:
            self._transition(
                self._rung - 1,
                f"p99 {p99 * 1e3:.1f}ms < "
                f"{self.config.effective_recover_p99 * 1e3:.1f}ms")

    def _transition(self, new_rung: int, reason: str) -> None:
        old = self.state
        self._rung = new_rung
        self._samples.clear()
        self._p99 = None
        self._last_transition = self._clock()
        transition = LadderTransition(at=self._last_transition, old=old,
                                      new=self.state, reason=reason)
        self.history.append(transition)
        obs.set_gauge("health.state", new_rung,
                      help="Degradation ladder rung (0=healthy..3=fallback)")
        obs.inc("ladder.transitions_total",
                help="Degradation ladder state changes")
        obs.emit_event("ladder", "ladder_transition", old=old,
                       new=self.state, reason=reason)
