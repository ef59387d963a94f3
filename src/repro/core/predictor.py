"""High-level cost prediction API (the "cost prediction" phase, Fig. 3).

:class:`CostPredictor` has one inference path. ``predict``,
``predict_many``, ``predict_grid`` and the guarded predictor's learned
stage all encode through the plan-side cache and then call
:meth:`CostPredictor.predict_encoded`, which runs the predictor's
:class:`~repro.core.execution.BucketExecutor`: one forward per distinct
plan, each plan scored under all of its profiles. A grid is
``predict_many`` over its pairs plus a reshape. A call that carries a
deadline runs under the executor's watchdog; one without runs on the
caller's thread.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster.resources import ResourceProfile
from repro.core.execution import BucketExecutor
from repro.core.trainer import Trainer
from repro.encoding.plan_encoder import EncodedPlan, PlanEncoder
from repro.errors import PredictionError
from repro.plan.physical import PhysicalPlan

__all__ = ["CostPredictor", "PredictorConfig"]


@dataclass(frozen=True)
class PredictorConfig:
    """Serving-side settings of a :class:`CostPredictor`.

    Both fields are accepted only so callers that pass them keep
    working; neither changes how a prediction runs.
    """

    #: Only ``"f64"``: inference runs at one precision.
    precision: str = "f64"
    #: Every predict path already runs the plan-side network once per
    #: distinct plan.
    factor_grids: bool = False

    def __post_init__(self) -> None:
        if self.precision != "f64":
            raise PredictionError(
                f"unknown precision {self.precision!r}; inference runs "
                "at f64 only")


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

    This class is the *unguarded* path: encoding or forward failures
    propagate to the caller. Serving code that must never crash plan
    selection should wrap it in
    :class:`repro.reliability.guard.GuardedCostPredictor`, which adds
    input validation and the RAAL → GPSJ → heuristic fallback chain.
    """

    def __init__(self, encoder: PlanEncoder, trainer: Trainer,
                 config: PredictorConfig | None = None) -> None:
        self.encoder = encoder
        self.trainer = trainer
        self.config = config or PredictorConfig()
        self.executor = BucketExecutor(trainer.model,
                                       trainer.config.batch_size,
                                       memo_size=encoder.cache_size)

    def configured(self, config: PredictorConfig) -> "CostPredictor":
        """A predictor sharing this one's encoder/model under ``config``."""
        return CostPredictor(self.encoder, self.trainer, config)

    def close(self) -> None:
        """Release the engine's worker pool (idempotent)."""
        self.executor.close()

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
        predictor's engine, so the deadline rule applies under the
        fallback chain too. Returns ``(costs, saturated)``: the number
        of this call's predictions clamped at the trainer's
        ``log_clamp_max``.
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
