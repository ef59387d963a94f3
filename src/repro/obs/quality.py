"""Prediction-quality observability: online q-error tracking and drift.

The latency side of the obs layer says how *fast* the predictor is;
this module says whether it is still *right*. Serving code feeds
``(prediction, observed_runtime)`` pairs back through
:meth:`AccuracyTracker.record`, which maintains online q-error
statistics — running mean plus median/p95 (within 1 %) from one
:class:`~repro.obs.metrics.Histogram` sketch per scope — globally, per
precision tier, and per workload class, all exported through the active
:class:`~repro.obs.metrics.MetricsRegistry`.

A :class:`DriftDetector` chained behind the tracker compares a frozen
*reference* window (the accuracy the model shipped with) against a
rolling *current* window, via two complementary tests:

* **ratio breach** — the geometric-mean q-error of the current window
  exceeds ``ratio_threshold`` × the reference (a step change);
* **Page–Hinkley** — a cumulative-sum test on log q-error that
  accumulates small persistent shifts a windowed ratio can miss.

Transitions are hysteretic (``consecutive`` breaching evaluations to
enter drift, ``consecutive`` calm ones plus a ``hold_seconds`` dwell to
leave) so a single outlier batch cannot flap the state. Entering and
leaving drift emits typed ``drift_detected`` / ``drift_recovered``
events and drives the ``quality.drift_state`` gauge; the guarded
predictor trips its learned-stage gate while the detector drifts, so
accuracy regressions are first-class health signals alongside latency.

Everything here is stdlib + the q-error math; like the rest of
``repro.obs`` it imports no model code, so any subsystem can feed it.
"""

from __future__ import annotations

import math
import re
import threading
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable

from repro.errors import TelemetryError
from repro.obs import runtime as obs
from repro.obs.metrics import Histogram

__all__ = [
    "STABLE",
    "DRIFT",
    "q_error",
    "QualityConfig",
    "AccuracyTracker",
    "DriftConfig",
    "DriftDetector",
]

#: Drift-detector states.
STABLE = "stable"
DRIFT = "drift"

_KEY_RE = re.compile(r"[^A-Za-z0-9_]")

#: Floor applied to predictions/observations before the ratio, so a
#: zero-cost estimate yields a huge-but-finite q-error instead of inf.
_EPS = 1e-9


def q_error(prediction: float, observed: float) -> float:
    """The symmetric relative error ``max(pred/obs, obs/pred)`` (>= 1).

    The standard accuracy metric of the cardinality/cost-estimation
    literature: 1.0 is a perfect estimate, 2.0 is off by 2× in either
    direction. Non-finite inputs yield ``nan`` (the caller drops the
    sample); non-positive inputs are floored to a tiny epsilon so the
    ratio stays finite.
    """
    prediction = float(prediction)
    observed = float(observed)
    if not (math.isfinite(prediction) and math.isfinite(observed)):
        return math.nan
    prediction = max(prediction, _EPS)
    observed = max(observed, _EPS)
    return max(prediction / observed, observed / prediction)


class _ScopeStats:
    """Online q-error statistics for one scope (global / tier / workload)."""

    __slots__ = ("sketch", "last")

    def __init__(self) -> None:
        self.sketch = Histogram("qerror")
        self.last = math.nan

    def observe(self, qe: float) -> None:
        self.sketch.observe(qe)
        self.last = qe

    @property
    def mean(self) -> float:
        return self.sketch.mean if self.sketch.count else math.nan

    def snapshot(self) -> dict:
        return {"count": self.sketch.count, "mean": self.mean,
                "p50": self.sketch.quantile(0.50),
                "p95": self.sketch.quantile(0.95), "last": self.last}


@dataclass(frozen=True)
class QualityConfig:
    """Shape of the accuracy tracker's rolling state."""

    #: Rolling-window size for the windowed (recent) statistics.
    window: int = 128

    def __post_init__(self) -> None:
        if self.window < 1:
            raise TelemetryError(f"window must be >= 1, got {self.window}")


class AccuracyTracker:
    """Online q-error accounting over a prediction feedback stream.

    ``record`` is thread-safe and cheap (a handful of float updates and
    gauge sets), so serving threads can feed it inline. A
    :class:`DriftDetector` passed as ``drift`` is fed every accepted
    sample; the caller reads transitions off the detector (the guarded
    predictor does this to couple drift into its learned-stage gate).
    """

    def __init__(self, config: QualityConfig | None = None,
                 drift: "DriftDetector | None" = None) -> None:
        self.config = config or QualityConfig()
        self.drift = drift
        self._lock = threading.Lock()
        self._global = _ScopeStats()
        self._by_tier: dict[str, _ScopeStats] = {}
        self._by_workload: dict[str, _ScopeStats] = {}
        self._window: deque[float] = deque(maxlen=self.config.window)
        self.rejected = 0

    @staticmethod
    def _key(raw: str) -> str:
        return _KEY_RE.sub("_", str(raw)) or "unknown"

    def record(self, prediction_seconds: float, observed_seconds: float,
               tier: str | None = None, workload: str | None = None) -> float:
        """Fold one feedback pair in; returns the sample's q-error.

        Samples whose q-error is not finite (non-finite inputs) are
        rejected — counted, never folded into the statistics — and
        reported as ``nan``.
        """
        qe = q_error(prediction_seconds, observed_seconds)
        if not math.isfinite(qe):
            with self._lock:
                self.rejected += 1
            obs.inc("quality.rejected_total",
                    help="Feedback pairs with non-finite q-error")
            return math.nan
        with self._lock:
            self._global.observe(qe)
            self._window.append(qe)
            scopes = [("quality", self._global)]
            if tier is not None:
                stats = self._by_tier.setdefault(self._key(tier), _ScopeStats())
                stats.observe(qe)
                scopes.append((f"quality.tier.{self._key(tier)}", stats))
            if workload is not None:
                stats = self._by_workload.setdefault(
                    self._key(workload), _ScopeStats())
                stats.observe(qe)
                scopes.append(
                    (f"quality.workload.{self._key(workload)}", stats))
        obs.inc("quality.feedback_total",
                help="(prediction, observed runtime) feedback pairs ingested")
        obs.observe("quality.qerror", qe,
                    help="Q-error of predictions vs observed runtimes")
        for name, stats in scopes:
            obs.set_gauge(f"{name}.qerror_mean", stats.mean,
                          help="Running mean q-error")
            obs.set_gauge(f"{name}.qerror_p50", stats.sketch.quantile(0.50),
                          help="Median q-error (sketch, 1% relative error)")
            obs.set_gauge(f"{name}.qerror_p95", stats.sketch.quantile(0.95),
                          help="p95 q-error (sketch, 1% relative error)")
        if self.drift is not None:
            self.drift.update(qe)
        return qe

    @property
    def count(self) -> int:
        """Accepted feedback samples over the tracker's lifetime."""
        return self._global.sketch.count

    def rolling(self) -> dict:
        """Mean/p50/p95 of the last ``config.window`` samples."""
        with self._lock:
            window = list(self._window)
        if not window:
            return {"count": 0, "mean": math.nan,
                    "p50": math.nan, "p95": math.nan}
        ordered = sorted(window)

        def pick(q: float) -> float:
            rank = q * (len(ordered) - 1)
            lo = int(rank)
            hi = min(lo + 1, len(ordered) - 1)
            return ordered[lo] + (rank - lo) * (ordered[hi] - ordered[lo])

        return {"count": len(window), "mean": sum(window) / len(window),
                "p50": pick(0.50), "p95": pick(0.95)}

    def snapshot(self) -> dict:
        """Point-in-time accounting for ``repro doctor`` and tests."""
        with self._lock:
            snap = {
                "overall": self._global.snapshot(),
                "by_tier": {k: s.snapshot() for k, s in self._by_tier.items()},
                "by_workload": {k: s.snapshot()
                                for k, s in self._by_workload.items()},
                "rejected": self.rejected,
            }
        snap["rolling"] = self.rolling()
        if self.drift is not None:
            snap["drift"] = self.drift.snapshot()
        return snap


@dataclass(frozen=True)
class DriftConfig:
    """Windows, thresholds, and hysteresis of one drift detector."""

    #: Samples frozen as the accuracy baseline (the first ones seen, or
    #: the recovery window after a re-baseline).
    reference_window: int = 64
    #: Rolling window compared against the reference.
    current_window: int = 32
    #: Current-window samples required before any evaluation.
    min_samples: int = 16
    #: Geometric-mean q-error ratio (current / reference) that counts
    #: as a breach.
    ratio_threshold: float = 1.5
    #: Ratio below which a drifting detector may recover (hysteresis
    #: band: must be below ``ratio_threshold``).
    recover_ratio: float = 1.2
    #: Consecutive breaching (resp. calm) evaluations required to enter
    #: (resp. leave) the drift state.
    consecutive: int = 3
    #: Minimum dwell in the drift state before recovery.
    hold_seconds: float = 0.0
    #: Page–Hinkley tolerance: per-sample slack subtracted from the
    #: deviation before accumulation.
    ph_delta: float = 0.05
    #: Page–Hinkley alarm threshold on the cumulative statistic
    #: (log q-error units); ``0`` disables the cumulative test.
    ph_threshold: float = 5.0

    def __post_init__(self) -> None:
        if self.reference_window < 1 or self.current_window < 1:
            raise TelemetryError("drift windows must be >= 1")
        if not 1 <= self.min_samples <= self.current_window:
            raise TelemetryError(
                f"need 1 <= min_samples <= current_window, got "
                f"min_samples={self.min_samples}, "
                f"current_window={self.current_window}")
        if self.ratio_threshold <= 1.0:
            raise TelemetryError(
                f"ratio_threshold must be > 1, got {self.ratio_threshold}")
        if not 1.0 <= self.recover_ratio < self.ratio_threshold:
            raise TelemetryError(
                f"recover_ratio ({self.recover_ratio}) must sit in "
                f"[1, ratio_threshold) for hysteresis")
        if self.consecutive < 1:
            raise TelemetryError("consecutive must be >= 1")
        if self.hold_seconds < 0 or self.ph_delta < 0 or self.ph_threshold < 0:
            raise TelemetryError(
                "hold_seconds/ph_delta/ph_threshold must be non-negative")


class DriftDetector:
    """Reference-vs-current accuracy comparison with hysteresis.

    Feed it q-errors (:meth:`update`); it owns the ``stable`` ↔
    ``drift`` state machine, the ``quality.drift_state`` gauge, and the
    ``drift_detected`` / ``drift_recovered`` events. The clock is
    injectable so the dwell logic is testable without sleeping.
    """

    def __init__(self, config: DriftConfig | None = None,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.config = config or DriftConfig()
        self._clock = clock
        self._lock = threading.Lock()
        self._reference: list[float] = []
        self._ref_mean = math.nan
        self._current: deque[float] = deque(maxlen=self.config.current_window)
        self._state = STABLE
        self._breaches = 0
        self._calm = 0
        self._entered_at: float | None = None
        self._ph_n = 0
        self._ph_mean = 0.0
        self._ph_sum = 0.0
        self._ph_min = 0.0
        self.detections = 0
        self.recoveries = 0
        self.last_reason: str | None = None
        obs.set_gauge("quality.drift_state", 0.0,
                      help="Accuracy drift state (0=stable, 1=drift)")

    @property
    def state(self) -> str:
        """Current state (:data:`STABLE` or :data:`DRIFT`)."""
        return self._state

    @property
    def reference_ready(self) -> bool:
        """Whether the reference window is full (evaluation armed)."""
        return len(self._reference) >= self.config.reference_window

    def ratio(self) -> float:
        """Geometric-mean q-error ratio, current window over reference.

        ``nan`` until both windows hold enough samples.
        """
        with self._lock:
            return self._ratio_locked()

    def _ratio_locked(self) -> float:
        if (not self.reference_ready
                or len(self._current) < self.config.min_samples):
            return math.nan
        current = sum(self._current) / len(self._current)
        return math.exp(current - self._ref_mean)

    def _ph_statistic(self) -> float:
        return self._ph_sum - self._ph_min

    def _seed_ph(self) -> None:
        """Restart the Page–Hinkley accumulator anchored at the reference.

        The running mean is seeded with the reference window's samples
        (count and mean) so a level shift right after the baseline is
        measured against the *baseline* accuracy — an unseeded mean
        would snap to the shifted level immediately and the cumulative
        statistic would never grow.
        """
        self._ph_n = len(self._reference)
        self._ph_mean = self._ref_mean
        self._ph_sum = 0.0
        self._ph_min = 0.0

    def update(self, qe: float) -> str | None:
        """Fold one q-error in; returns ``"drift_detected"`` /
        ``"drift_recovered"`` on a state change, else ``None``."""
        if not math.isfinite(qe):
            return None
        x = math.log(max(float(qe), 1.0))
        transition: str | None = None
        fields: dict[str, float] = {}
        with self._lock:
            if not self.reference_ready:
                self._reference.append(x)
                if self.reference_ready:
                    self._ref_mean = sum(self._reference) / len(self._reference)
                    self._seed_ph()
                return None
            self._current.append(x)
            # Page–Hinkley cumulative test on log q-error.
            self._ph_n += 1
            self._ph_mean += (x - self._ph_mean) / self._ph_n
            self._ph_sum += x - self._ph_mean - self.config.ph_delta
            self._ph_min = min(self._ph_min, self._ph_sum)
            if len(self._current) < self.config.min_samples:
                return None
            ratio = self._ratio_locked()
            ph = self._ph_statistic()
            now = self._clock()
            if self._state == STABLE:
                ratio_breach = ratio > self.config.ratio_threshold
                ph_breach = (self.config.ph_threshold > 0
                             and ph > self.config.ph_threshold)
                if ratio_breach or ph_breach:
                    self._breaches += 1
                else:
                    self._breaches = 0
                if self._breaches >= self.config.consecutive:
                    self._state = DRIFT
                    self._entered_at = now
                    self._breaches = 0
                    self._calm = 0
                    self.detections += 1
                    test = "ratio" if ratio_breach else "page-hinkley"
                    self.last_reason = (
                        f"{test} breach: qerror ratio {ratio:.2f} "
                        f"(threshold {self.config.ratio_threshold}), "
                        f"PH {ph:.2f} (threshold {self.config.ph_threshold})")
                    transition = "drift_detected"
                    fields = {"ratio": ratio, "ph": ph}
            else:
                dwelled = (self._entered_at is None
                           or now - self._entered_at >= self.config.hold_seconds)
                if ratio < self.config.recover_ratio:
                    self._calm += 1
                else:
                    self._calm = 0
                if self._calm >= self.config.consecutive and dwelled:
                    # Re-baseline on the recovered window: the model that
                    # serves now is the model future drift is judged by.
                    self._state = STABLE
                    self._calm = 0
                    self.recoveries += 1
                    self._reference = list(self._current)
                    self._ref_mean = (sum(self._reference)
                                      / len(self._reference))
                    self._current.clear()
                    self._seed_ph()
                    self.last_reason = f"recovered: qerror ratio {ratio:.2f}"
                    transition = "drift_recovered"
                    fields = {"ratio": ratio}
        if transition is not None:
            obs.set_gauge("quality.drift_state",
                          1.0 if transition == "drift_detected" else 0.0,
                          help="Accuracy drift state (0=stable, 1=drift)")
            obs.inc(f"quality.{transition}_total",
                    help="Drift detector state changes")
            obs.emit_event("quality", transition,
                           reason=self.last_reason, **fields)
        return transition

    def reset(self) -> None:
        """Drop all state and start re-learning the reference window."""
        with self._lock:
            self._reference = []
            self._ref_mean = math.nan
            self._current.clear()
            self._state = STABLE
            self._breaches = 0
            self._calm = 0
            self._entered_at = None
            self._ph_n = 0
            self._ph_mean = 0.0
            self._ph_sum = 0.0
            self._ph_min = 0.0
        obs.set_gauge("quality.drift_state", 0.0,
                      help="Accuracy drift state (0=stable, 1=drift)")

    def snapshot(self) -> dict:
        """Point-in-time state for ``repro doctor``, ``top``, and tests."""
        with self._lock:
            return {
                "state": self._state,
                "ratio": self._ratio_locked(),
                "ph": self._ph_statistic(),
                "reference_samples": len(self._reference),
                "current_samples": len(self._current),
                "detections": self.detections,
                "recoveries": self.recoveries,
                "last_reason": self.last_reason,
            }
