"""Training loop for the deep cost models.

Targets are trained in log space (``log1p(seconds)``) — the standard
practice for cost models, whose labels span orders of magnitude — and
converted back for metric reporting in original space where needed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro import obs
from repro.core.execution import BucketExecutor, collate_inference
from repro.core.raal import RAAL, RAALBatch
from repro.encoding.plan_encoder import EncodedPlan
from repro.errors import TrainingError
from repro.nn import Adam, StepLR, clip_grad_norm, mse_loss, Tensor

__all__ = ["TrainingSample", "TrainerConfig", "TrainResult", "RecoveryEvent",
           "Trainer", "collate"]


@dataclass
class TrainingSample:
    """One (encoded plan, observed cost) training record."""

    encoded: EncodedPlan
    cost_seconds: float

    @property
    def log_cost(self) -> float:
        """Training-space target."""
        return float(np.log1p(max(self.cost_seconds, 0.0)))


def collate(samples: list[TrainingSample]) -> RAALBatch:
    """Zero-pad a list of samples into one float64 :class:`RAALBatch`.

    Checks that every sample has the same feature widths, pads through
    :func:`~repro.core.execution.collate_inference` (the one padding
    implementation) and attaches the log-space targets.
    """
    if not samples:
        raise TrainingError("cannot collate an empty batch")
    node_dims = {s.encoded.node_features.shape[1] for s in samples}
    if len(node_dims) > 1:
        raise TrainingError(
            f"inconsistent node feature dims in batch: {sorted(node_dims)} — "
            "all samples must come from the same encoder configuration "
            "(mixing one-hot and word2vec encodings produces different widths)")
    for name, dims in (("resources", {s.encoded.resources.shape for s in samples}),
                       ("extras", {s.encoded.extras.shape for s in samples})):
        if len(dims) > 1:
            raise TrainingError(
                f"inconsistent {name} shapes in batch: {sorted(dims)}")
    batch = collate_inference([s.encoded for s in samples])
    batch.targets = np.array([s.log_cost for s in samples])
    return batch


@dataclass(frozen=True)
class TrainerConfig:
    """Knobs for :class:`Trainer`."""

    epochs: int = 30
    batch_size: int = 32
    learning_rate: float = 2e-3
    weight_decay: float = 1e-5
    grad_clip: float = 5.0
    validation_fraction: float = 0.1
    early_stopping_patience: int = 8
    # When set, the learning rate decays by ``lr_decay_gamma`` every
    # ``lr_decay_epochs`` epochs (StepLR).
    lr_decay_epochs: int | None = None
    lr_decay_gamma: float = 0.5
    # Upper clamp on log-space predictions before ``expm1`` — bounds
    # ``predict_seconds`` output at ``expm1(log_clamp_max)``. Clamped
    # (saturated) predictions are counted by ``Trainer.seconds_from_log``.
    log_clamp_max: float = 25.0
    # Divergence guard: an epoch whose loss is non-finite, or spikes
    # above ``divergence_spike_factor`` × the best train loss so far,
    # triggers a rollback to the best state with a halved learning
    # rate; after ``divergence_max_recoveries`` such events fit()
    # raises TrainingError instead of returning a poisoned model.
    divergence_max_recoveries: int = 3
    divergence_spike_factor: float = 50.0
    seed: int = 0
    verbose: bool = False


@dataclass(frozen=True)
class RecoveryEvent:
    """One divergence recovery during :meth:`Trainer.fit`."""

    epoch: int
    reason: str
    learning_rate: float  # the halved LR training resumed with


@dataclass
class TrainResult:
    """Loss history and timing of one training run.

    ``epoch_seconds`` is measured with the trainer's injectable clock
    and *includes* divergence-recovery epochs, so training-efficiency
    numbers see recovery overhead instead of re-timing externally.
    """

    train_losses: list[float] = field(default_factory=list)
    val_losses: list[float] = field(default_factory=list)
    best_epoch: int = 0
    train_seconds: float = 0.0
    recoveries: list[RecoveryEvent] = field(default_factory=list)
    epoch_seconds: list[float] = field(default_factory=list)
    samples_per_sec: list[float] = field(default_factory=list)

    @property
    def final_train_loss(self) -> float:
        """Training loss of the last epoch."""
        if not self.train_losses:
            raise TrainingError("no epochs were run")
        return self.train_losses[-1]


class Trainer:
    """Minibatch trainer with early stopping on a validation split."""

    def __init__(self, model: RAAL, config: TrainerConfig | None = None,
                 clock: Callable[[], float] = time.perf_counter) -> None:
        self.model = model
        self.config = config or TrainerConfig()
        #: Monotonic time source for epoch/total wall-clock accounting;
        #: injectable so tests assert exact timings without sleeping.
        self.clock = clock
        # Default execution engine, built lazily; CostPredictor passes
        # its own engine instead.
        self._executor = None

    def fit(self, samples: list[TrainingSample]) -> TrainResult:
        """Train the model in place; returns the loss history.

        Divergence guard: a non-finite or spiking epoch loss rolls the
        model back to the best state seen so far and restarts the
        optimizer at half the learning rate (fresh Adam moments — the
        stale ones were computed from the diverged trajectory). Each
        recovery is recorded in :attr:`TrainResult.recoveries`; after
        ``divergence_max_recoveries`` events :class:`TrainingError` is
        raised with the model restored to its best finite state, so a
        silently-NaN fitted model can never escape this method.
        """
        cfg = self.config
        if len(samples) < 4:
            raise TrainingError(f"need at least 4 samples, got {len(samples)}")
        rng = np.random.default_rng(cfg.seed)
        order = rng.permutation(len(samples))
        n_val = max(1, int(len(samples) * cfg.validation_fraction))
        val_samples = [samples[i] for i in order[:n_val]]
        train_samples = [samples[i] for i in order[n_val:]]

        # Epoch-persistent collation: length-bucketed batches are padded
        # exactly once, before the epoch loop; epochs only reshuffle the
        # batch *order* (one rng draw per epoch). Validation batches are
        # likewise collated once and reused by every evaluation.
        train_batches = self._collate_bucketed(train_samples)
        val_batches = self._collate_bucketed(val_samples)

        current_lr = cfg.learning_rate

        def make_optimizer(lr: float):
            opt = Adam(self.model.parameters(), lr=lr,
                       weight_decay=cfg.weight_decay)
            sched = (StepLR(opt, cfg.lr_decay_epochs, cfg.lr_decay_gamma)
                     if cfg.lr_decay_epochs else None)
            return opt, sched

        optimizer, scheduler = make_optimizer(current_lr)
        result = TrainResult()
        best_val = np.inf
        best_train = np.inf
        best_state = self.model.state_dict()
        patience_left = cfg.early_stopping_patience
        start = self.clock()

        for epoch in range(cfg.epochs):
            epoch_start = self.clock()
            self.model.train()
            perm = rng.permutation(len(train_batches))
            epoch_loss = 0.0
            batches = 0
            samples_seen = 0
            for bi in perm:
                batch = train_batches[bi]
                optimizer.zero_grad()
                # Analytic gradients straight into .grad; the loss value
                # goes through the module-level mse_loss so fault
                # injection and monkeypatching have one call site.
                _, pred_np = self.model.forward_backward(batch)
                loss = mse_loss(Tensor(pred_np), Tensor(batch.targets))
                clip_grad_norm(optimizer.parameters, cfg.grad_clip)
                optimizer.step()
                epoch_loss += loss.item()
                batches += 1
                samples_seen += batch.size
            train_loss = epoch_loss / max(batches, 1)
            val_loss = self._evaluate_batches(val_batches)
            result.train_losses.append(train_loss)
            result.val_losses.append(val_loss)
            epoch_seconds = self.clock() - epoch_start
            result.epoch_seconds.append(epoch_seconds)
            throughput = samples_seen / epoch_seconds if epoch_seconds > 0 else 0.0
            result.samples_per_sec.append(throughput)
            obs.observe("train.epoch_seconds", epoch_seconds,
                        help="Wall-clock per training epoch")
            obs.observe("train.samples_per_sec", throughput,
                        help="Training throughput per epoch")
            obs.inc("train.batches", batches,
                    help="Training batches processed")
            obs.emit_event("trainer", "epoch", epoch=epoch,
                           train_loss=train_loss, val_loss=val_loss,
                           learning_rate=getattr(optimizer, "lr", current_lr),
                           seconds=epoch_seconds, throughput=throughput)

            divergence = self._divergence_reason(train_loss, val_loss, best_train)
            if divergence is not None:
                self.model.load_state_dict(best_state)
                current_lr *= 0.5
                event = RecoveryEvent(epoch=epoch, reason=divergence,
                                      learning_rate=current_lr)
                result.recoveries.append(event)
                obs.inc("train.recoveries",
                        help="Divergence recoveries during fit()")
                obs.emit_event("trainer", "recovery", epoch=epoch,
                               reason=divergence, learning_rate=current_lr)
                if cfg.verbose:
                    print(f"epoch {epoch:3d}  DIVERGED ({divergence}); "
                          f"rolled back, lr -> {current_lr:g}")
                if len(result.recoveries) > cfg.divergence_max_recoveries:
                    self.model.eval()
                    result.train_seconds = self.clock() - start
                    raise TrainingError(
                        f"training diverged {len(result.recoveries)} times "
                        f"(last: {divergence} at epoch {epoch}); model rolled "
                        "back to its best finite state")
                optimizer, scheduler = make_optimizer(current_lr)
                patience_left = cfg.early_stopping_patience
                continue

            if scheduler is not None:
                scheduler.step()
            if cfg.verbose:
                print(f"epoch {epoch:3d}  train={train_loss:.4f}  val={val_loss:.4f}")
            best_train = min(best_train, train_loss)
            if val_loss < best_val - 1e-6:
                best_val = val_loss
                best_state = self.model.state_dict()
                result.best_epoch = epoch
                patience_left = cfg.early_stopping_patience
            else:
                patience_left -= 1
                if patience_left <= 0:
                    break
        self.model.load_state_dict(best_state)
        self.model.eval()
        self._require_finite_parameters()
        result.train_seconds = self.clock() - start
        obs.set_gauge("train.epochs_run", len(result.train_losses))
        obs.set_gauge("train.best_epoch", result.best_epoch)
        obs.emit_event("trainer", "fit_complete",
                       epochs=len(result.train_losses),
                       best_epoch=result.best_epoch,
                       recoveries=len(result.recoveries),
                       train_seconds=result.train_seconds)
        return result

    def _divergence_reason(self, train_loss: float, val_loss: float,
                           best_train: float) -> str | None:
        """Why this epoch counts as diverged, or ``None`` when healthy."""
        if not (np.isfinite(train_loss) and np.isfinite(val_loss)):
            return f"non-finite loss (train={train_loss}, val={val_loss})"
        factor = self.config.divergence_spike_factor
        if np.isfinite(best_train) and train_loss > factor * max(best_train, 1e-12):
            return (f"loss spike (train={train_loss:.4g} > "
                    f"{factor:g} x best {best_train:.4g})")
        return None

    def _require_finite_parameters(self) -> None:
        """Refuse to hand back a model with NaN/Inf parameters."""
        for name, param in self.model.named_parameters():
            if not np.all(np.isfinite(param.data)):
                raise TrainingError(
                    f"fitted model parameter {name!r} contains non-finite "
                    "values — training never produced a finite state")

    def _collate_bucketed(self, samples: list[TrainingSample]) -> list[RAALBatch]:
        """Collate samples into length-bucketed, padded batches — once.

        Samples are stably sorted by node count so a batch of short
        plans is not padded to the longest plan in the split; the
        resulting batches are reused across every epoch (only their
        order is reshuffled), removing per-epoch re-padding.
        """
        if not samples:
            return []
        order = np.argsort([s.encoded.num_nodes for s in samples], kind="stable")
        bs = self.config.batch_size
        return [collate([samples[i] for i in order[lo : lo + bs]])
                for lo in range(0, len(samples), bs)]

    def _evaluate_batches(self, batches: list[RAALBatch]) -> float:
        """Mean MSE (log space) over pre-collated batches, in eval mode.

        The forward runs through the fused graph-free
        :meth:`RAAL.forward_inference`; the loss value goes through the
        module-level :func:`mse_loss` (the call site fault injection
        patches).
        """
        if not batches:
            raise TrainingError("cannot evaluate on an empty sample list")
        self.model.eval()
        total = 0.0
        count = 0
        for batch in batches:
            pred = Tensor(self.model.forward_inference(batch))
            total += mse_loss(pred, Tensor(batch.targets)).item() * batch.size
            count += batch.size
        return total / count

    def evaluate_loss(self, samples: list[TrainingSample]) -> float:
        """Mean MSE (log space) over samples, in eval mode."""
        if not samples:
            raise TrainingError("cannot evaluate on an empty sample list")
        return self._evaluate_batches(self._collate_bucketed(samples))

    def bucket_executor(self) -> BucketExecutor:
        """The default execution engine."""
        if self._executor is None:
            self._executor = BucketExecutor(
                self.model, self.config.batch_size)
        return self._executor

    def predict_log(self, encoded: list[EncodedPlan], executor=None,
                    deadline=None) -> np.ndarray:
        """Log-space predictions for encoded plans, in input order.

        Runs the one inference kernel
        (:meth:`~repro.core.execution.BucketExecutor.predict_log`): one
        graph-free forward per distinct plan, length-bucketed, each
        plan scored under all of its profiles. No autograd graph is
        built.

        ``executor`` optionally supplies the
        :class:`~repro.core.execution.BucketExecutor` to run on (a
        predictor's own engine); the default is the trainer's.
        ``deadline`` bounds the forward — expiry raises
        :class:`~repro.errors.DeadlineExceeded` instead of returning a
        late answer.
        """
        if not encoded:
            return np.zeros(0)
        engine = executor if executor is not None else self.bucket_executor()
        with obs.span("forward", plans=len(encoded)) as sp:
            start = self.clock()
            preds, batches = engine.predict_log(encoded, deadline=deadline)
            sp.annotate(batches=batches)
            obs.observe("predict.forward_seconds", self.clock() - start,
                        help="Model forward latency per predict call")
        return preds

    def seconds_from_log(self, log_preds: np.ndarray) -> tuple[np.ndarray, int]:
        """Clamp + ``expm1``: ``(seconds, saturated)``.

        Log-space predictions are clamped to ``[0, log_clamp_max]``
        before ``expm1``. Predictions that hit the upper clamp are
        *saturated* — the model asked for a cost beyond its trained
        range. Their count comes back with the costs rather than being
        silently hidden (the guarded predictor treats a saturated batch
        as a degradation trigger), so concurrent callers sharing this
        trainer each see their own count.
        """
        hi = self.config.log_clamp_max
        saturated = int(np.count_nonzero(log_preds > hi))
        if saturated:
            obs.inc("predict.saturated_total", saturated,
                    help="Predictions clamped at log_clamp_max")
        return np.expm1(np.clip(log_preds, 0.0, hi)), saturated

    def predict_seconds(self, encoded: list[EncodedPlan], executor=None,
                        deadline=None) -> np.ndarray:
        """Predicted costs in seconds (inverse of the log transform).

        Clamped as in :meth:`seconds_from_log`; use that method on
        :meth:`predict_log` output when the saturation count matters.
        """
        log_preds = self.predict_log(encoded, executor=executor,
                                     deadline=deadline)
        return self.seconds_from_log(log_preds)[0]
