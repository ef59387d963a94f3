"""Shadow-sampling accuracy canary for degraded precision tiers.

The f32/int8 tiers were validated offline against a drift budget, but
nothing guarantees the deployed bundle stays inside it — a corrupted
quantization cache, an in-place weight mutation the fingerprint missed,
or simply a workload the budget was never measured on. The canary
watches for exactly that: while the ladder serves a degraded tier, a
seeded ~1% sample of requests is *shadow-scored* on the full-precision
f64 path and the relative drift between the two answers is recorded.
A sample past ``budget`` trips the ladder back up (and quarantines the
drifting rung) — silent accuracy loss becomes a visible, self-healing
event.

Sampling is seeded so tests and benchmarks are reproducible; the
decision stream is shared across threads under a lock (sampling is a
few hundred nanoseconds against a model forward's milliseconds).
"""

from __future__ import annotations

import threading

import numpy as np

from repro import obs
from repro.errors import ReproError

__all__ = ["AccuracyCanary"]


class AccuracyCanary:
    """Seeded shadow-sampler comparing degraded answers to the f64 path.

    Parameters
    ----------
    sample_rate:
        Fraction of degraded-tier requests to shadow-score (default 1%).
    budget:
        Max tolerated relative drift versus the f64 answer (default 5%,
        the tier qualification budget from DESIGN.md).
    seed:
        Seed of the sampling RNG, for reproducible canary streams.
    """

    def __init__(self, sample_rate: float = 0.01, budget: float = 0.05,
                 seed: int = 0) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ReproError(
                f"sample_rate must be in [0, 1], got {sample_rate}")
        if budget <= 0:
            raise ReproError(f"budget must be > 0, got {budget}")
        self.sample_rate = float(sample_rate)
        self.budget = float(budget)
        self._rng = np.random.default_rng(seed)
        self._lock = threading.Lock()
        self.samples = 0
        self.trips = 0
        self.last_drift: float | None = None

    def should_sample(self) -> bool:
        """Whether this degraded request joins the shadow sample."""
        if self.sample_rate <= 0.0:
            return False
        if self.sample_rate >= 1.0:
            return True
        with self._lock:
            return bool(self._rng.random() < self.sample_rate)

    @staticmethod
    def drift(degraded: np.ndarray, reference: np.ndarray) -> float:
        """Max relative deviation of ``degraded`` from ``reference``."""
        degraded = np.asarray(degraded, dtype=np.float64)
        reference = np.asarray(reference, dtype=np.float64)
        denom = np.maximum(np.abs(reference), 1e-9)
        return float(np.max(np.abs(degraded - reference) / denom))

    def observe(self, degraded: np.ndarray, reference: np.ndarray,
                tier: str) -> bool:
        """Record one shadow comparison; ``True`` means the budget broke.

        Emits the ``canary.drift_ratio`` histogram sample and, on a
        breach, the ``canary.trips_total`` counter plus a
        ``canary_trip`` event (the caller steps the ladder).
        """
        drift = self.drift(degraded, reference)
        with self._lock:
            self.samples += 1
            self.last_drift = drift
            tripped = drift > self.budget
            if tripped:
                self.trips += 1
        obs.inc("canary.samples_total",
                help="Degraded predictions shadow-scored against f64")
        obs.observe("canary.drift_ratio", drift,
                    help="Relative drift of degraded tiers vs the f64 path")
        if tripped:
            obs.inc("canary.trips_total",
                    help="Canary drift-budget breaches")
            obs.emit_event("canary", "canary_trip", tier=tier,
                           drift=drift, budget=self.budget)
        return tripped

    def snapshot(self) -> dict:
        """Point-in-time accounting for ``repro doctor`` and tests."""
        with self._lock:
            return {"samples": self.samples, "trips": self.trips,
                    "last_drift": self.last_drift,
                    "sample_rate": self.sample_rate, "budget": self.budget}
