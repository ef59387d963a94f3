"""High-level cost prediction API (the "cost prediction" phase, Fig. 3).

:class:`CostPredictor` has one inference path. ``predict``,
``predict_many``, ``predict_grid`` and the guarded predictor's learned
stage all encode through the plan-side cache and then call
:meth:`CostPredictor.predict_encoded`, which runs the configured
:class:`~repro.core.execution.BucketExecutor`: one forward per distinct
plan, each plan scored under all of its profiles. A grid is
``predict_many`` over its pairs plus a reshape.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster.resources import ResourceProfile
from repro.core.execution import BucketExecutor
from repro.core.trainer import Trainer
from repro.encoding.plan_encoder import EncodedPlan, PlanEncoder
from repro.nn.precision import DEFAULT_PRECISION, resolve_dtype
from repro.plan.physical import PhysicalPlan

__all__ = ["CostPredictor", "PredictorConfig"]


@dataclass(frozen=True)
class PredictorConfig:
    """Serving-side execution policy for a :class:`CostPredictor`.

    The default configuration is float64 weights with single-threaded
    bucket execution.
    """

    #: Precision tier: ``"f64"`` (the reference) or ``"f32"``
    #: (reduced-precision kernels).
    precision: str = DEFAULT_PRECISION
    #: Bucket-level parallelism inside predict calls. ``1`` stays on
    #: the calling thread; ``0``/``None`` means one worker per core.
    threads: int | None = 1
    #: No effect: accepted so callers that pass it keep working. Every
    #: predict path already runs the plan-side network once per
    #: distinct plan.
    factor_grids: bool = False


class CostPredictor:
    """Predicts execution costs for (plan, resources) pairs.

    Bundles a fitted :class:`~repro.encoding.plan_encoder.PlanEncoder`
    and a trained model so downstream code (the plan selector, the
    benchmarks) can ask for costs directly.

    Prediction has one path: plan-side features are served from the
    encoder's LRU cache, the model forward is graph-free (no autograd)
    and runs once per distinct plan, and batches are length-bucketed.
    The test suite checks it against an unbucketed autograd forward
    (``tests/oracles.py``) to ≤ 1e-8.

    A :class:`PredictorConfig` selects the execution policy: precision
    tier (f64 / f32) and bucket-parallel threading.

    This class is the *unguarded* path: encoding or forward failures
    propagate to the caller. Serving code that must never crash plan
    selection should wrap it in
    :class:`repro.reliability.guard.GuardedCostPredictor`, which adds
    input validation and the RAAL → GPSJ → heuristic fallback chain.
    """

    def __init__(self, encoder: PlanEncoder, trainer: Trainer,
                 config: PredictorConfig | None = None,
                 quality=None) -> None:
        self.encoder = encoder
        self.trainer = trainer
        self.config = config or PredictorConfig()
        resolve_dtype(self.config.precision)  # validate eagerly
        # Optional repro.obs.quality.AccuracyTracker; built lazily on
        # first record_observation when the caller didn't supply one.
        self.quality = quality
        self._executor: BucketExecutor | None = None

    def configured(self, config: PredictorConfig) -> "CostPredictor":
        """A predictor sharing this one's encoder/model under ``config``.

        The quality tracker is shared too: predictors at another
        precision report into the same feedback accounting, distinguished
        by the ``tier`` scope of each sample.
        """
        return CostPredictor(self.encoder, self.trainer, config,
                             quality=self.quality)

    def record_observation(self, prediction_seconds: float,
                           observed_seconds: float, *,
                           tier: str | None = None,
                           workload: str | None = None) -> float:
        """Feed one (prediction, observed runtime) pair back.

        The direct feedback API for callers that track their own
        request identity (the guarded predictor offers the audit-ring
        variant keyed by request id). Folds the pair into the
        predictor's :class:`~repro.obs.quality.AccuracyTracker`
        (created on first use when not injected), under the configured
        precision tier unless ``tier`` overrides it. Returns the
        sample's q-error (``nan`` for unusable ground truth).
        """
        if self.quality is None:
            # Imported lazily: repro.obs.quality is cheap, but the
            # predictor core should not force the quality layer on
            # programs that never feed observations back.
            from repro.obs.quality import AccuracyTracker

            self.quality = AccuracyTracker()
        return self.quality.record(prediction_seconds, observed_seconds,
                                   tier=tier or self.config.precision,
                                   workload=workload)

    @property
    def executor(self) -> BucketExecutor:
        """The lazily-built execution engine for this config."""
        if self._executor is None:
            self._executor = BucketExecutor(
                self.trainer.model, self.trainer.config.batch_size,
                precision=self.config.precision, threads=self.config.threads)
        return self._executor

    def close(self) -> None:
        """Release the engine's worker pool (idempotent)."""
        if self._executor is not None:
            self._executor.close()
            self._executor = None

    def predict(self, plan: PhysicalPlan, resources: ResourceProfile,
                deadline=None) -> float:
        """Predicted cost (seconds) of running ``plan`` under ``resources``."""
        return float(self.predict_many([(plan, resources)],
                                       deadline=deadline)[0])

    def predict_encoded(self, encoded: list[EncodedPlan],
                        deadline=None) -> tuple[np.ndarray, int]:
        """Predicted costs (seconds) for already-encoded pairs.

        The execution entry point shared by :meth:`predict_many` and
        the guarded predictor's RAAL stage — both route through the
        configured engine, so precision, threading, and deadline policy
        apply under the fallback chain too. Returns ``(costs,
        saturated)``: the number of this call's predictions clamped at
        the trainer's ``log_clamp_max``.
        """
        log_preds = self.trainer.predict_log(encoded, executor=self.executor,
                                             deadline=deadline)
        return self.trainer.seconds_from_log(log_preds)

    def predict_many(self, pairs: list[tuple[PhysicalPlan, ResourceProfile]],
                     deadline=None) -> np.ndarray:
        """Vector of predicted costs for many (plan, resources) pairs.

        Repeated plans across pairs are encoded once (the encoder
        dedups within the call and memoizes across calls) and run
        through the plan side of the network once. ``deadline`` (a
        :class:`~repro.reliability.deadline.Deadline`) bounds the call;
        expiry raises :class:`~repro.errors.DeadlineExceeded`.
        """
        with obs.span("predict", pairs=len(pairs)):
            start = self.trainer.clock()
            obs.inc("predict.requests_total",
                    help="CostPredictor batch prediction calls")
            obs.inc("predict.pairs_total", len(pairs),
                    help="(plan, resources) pairs predicted")
            encoded = self.encoder.encode_many(pairs)
            if deadline is not None:
                deadline.check("after encode")
            costs, _ = self.predict_encoded(encoded, deadline=deadline)
            obs.observe("predict.latency_seconds", self.trainer.clock() - start,
                        help="End-to-end predict_many latency")
            return costs

    def predict_grid(self, plans: list[PhysicalPlan],
                     profiles: list[ResourceProfile],
                     deadline=None) -> np.ndarray:
        """Cost matrix ``(len(profiles), len(plans))`` for a full grid.

        The plan-selection / resource-recommendation workload: every
        plan scored under every resource profile. :meth:`predict_many`
        over the profile-major pairs, reshaped: each plan is encoded
        and run through the plan side of the network once, whatever
        the number of profiles.
        """
        with obs.span("predict_grid", plans=len(plans),
                      profiles=len(profiles)):
            obs.inc("predict.grids_total",
                    help="CostPredictor grid prediction calls")
            pairs = [(plan, profile) for profile in profiles for plan in plans]
            costs = self.predict_many(pairs, deadline=deadline)
            return costs.reshape(len(profiles), len(plans))
