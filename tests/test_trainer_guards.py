"""Tests for the training divergence guards and the prediction clamp.

Divergence is injected deterministically by wrapping the trainer
module's ``mse_loss`` — the first N calls are poisoned (NaN or spiked),
after which the real loss resumes. No randomness beyond seeded RNGs.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.raal import RAAL, RAALConfig
from repro.core.trainer import Trainer, TrainerConfig, TrainingSample, collate
from repro.encoding.plan_encoder import EncodedPlan
from repro.errors import TrainingError
from repro.nn import mse_loss as real_mse_loss

NODE_DIM = 6


def make_sample(rng, node_dim=NODE_DIM, num_nodes=3, cost=None):
    feats = rng.normal(size=(num_nodes, node_dim))
    child = np.zeros((num_nodes, num_nodes), dtype=bool)
    for j in range(1, num_nodes):
        child[j, j - 1] = True
    encoded = EncodedPlan(
        node_features=feats,
        child_mask=child,
        resources=rng.uniform(0.1, 1.0, size=7),
        extras=rng.uniform(0.0, 1.0, size=5),
    )
    if cost is None:
        cost = float(rng.uniform(1.0, 50.0))
    return TrainingSample(encoded=encoded, cost_seconds=cost)


@pytest.fixture()
def samples():
    rng = np.random.default_rng(42)
    return [make_sample(rng) for _ in range(12)]


def make_trainer(**overrides) -> Trainer:
    model = RAAL(RAALConfig(node_dim=NODE_DIM, embedding_dim=8, hidden_size=8,
                            latent_dim=4, dense_sizes=(8,), dropout=0.0))
    defaults = dict(epochs=6, batch_size=6, learning_rate=1e-3,
                    early_stopping_patience=10, seed=0)
    defaults.update(overrides)
    return Trainer(model, TrainerConfig(**defaults))


class PoisonedLoss:
    """Wraps the real MSE; poisons calls in [start, stop) by ``factor``."""

    def __init__(self, start, stop, factor):
        self.start, self.stop, self.factor = start, stop, factor
        self.calls = 0

    def __call__(self, pred, target):
        self.calls += 1
        loss = real_mse_loss(pred, target)
        if self.start < self.calls <= self.stop:
            return loss * self.factor
        return loss


# With 12 samples, validation_fraction 0.1 → 11 train / 1 val; batch
# size 6 → 2 train batches + 1 eval batch = 3 mse_loss calls per epoch.
CALLS_PER_EPOCH = 3


class TestDivergenceGuard:
    def test_nan_epoch_triggers_rollback_and_lr_halving(
            self, samples, monkeypatch):
        poison = PoisonedLoss(0, CALLS_PER_EPOCH, float("nan"))
        monkeypatch.setattr("repro.core.trainer.mse_loss", poison)
        trainer = make_trainer(divergence_max_recoveries=2)
        result = trainer.fit(samples)

        assert len(result.recoveries) == 1
        event = result.recoveries[0]
        assert event.epoch == 0
        assert "non-finite" in event.reason
        assert event.learning_rate == pytest.approx(5e-4)
        # The poisoned epoch is recorded truthfully, not hidden.
        assert np.isnan(result.train_losses[0])
        # Training resumed and produced finite epochs afterwards.
        assert np.isfinite(result.train_losses[1:]).all()
        for name, param in trainer.model.named_parameters():
            assert np.isfinite(param.data).all(), name

    def test_loss_spike_triggers_rollback(self, samples, monkeypatch):
        poison = PoisonedLoss(CALLS_PER_EPOCH, 2 * CALLS_PER_EPOCH, 1e6)
        monkeypatch.setattr("repro.core.trainer.mse_loss", poison)
        trainer = make_trainer(divergence_spike_factor=10.0,
                               divergence_max_recoveries=2)
        result = trainer.fit(samples)

        assert len(result.recoveries) == 1
        assert result.recoveries[0].epoch == 1
        assert "spike" in result.recoveries[0].reason

    def test_unrecoverable_divergence_raises_with_finite_model(
            self, samples, monkeypatch):
        poison = PoisonedLoss(0, 10_000, float("nan"))  # never heals
        monkeypatch.setattr("repro.core.trainer.mse_loss", poison)
        trainer = make_trainer(divergence_max_recoveries=2, epochs=20)
        with pytest.raises(TrainingError, match="diverged"):
            trainer.fit(samples)
        # Even on failure the model is rolled back, never handed over NaN.
        for name, param in trainer.model.named_parameters():
            assert np.isfinite(param.data).all(), name

    def test_healthy_training_records_no_recoveries(self, samples):
        trainer = make_trainer()
        result = trainer.fit(samples)
        assert result.recoveries == []
        assert np.isfinite(result.train_losses).all()


class TestCollateValidation:
    def test_mixed_node_dims_rejected_clearly(self):
        rng = np.random.default_rng(0)
        mixed = [make_sample(rng, node_dim=6), make_sample(rng, node_dim=8)]
        with pytest.raises(TrainingError,
                           match="inconsistent node feature dims"):
            collate(mixed)

    def test_mixed_resource_shapes_rejected(self):
        rng = np.random.default_rng(0)
        a = make_sample(rng)
        b = make_sample(rng)
        b.encoded.resources = rng.uniform(size=5)
        with pytest.raises(TrainingError, match="inconsistent resources"):
            collate([a, b])

    def test_consistent_batch_still_collates(self):
        rng = np.random.default_rng(0)
        batch = collate([make_sample(rng), make_sample(rng, num_nodes=5)])
        assert batch.node_features.shape[0] == 2


class TestPredictionClamp:
    def test_saturation_counted_not_hidden(self, samples):
        trainer = make_trainer()
        encoded = [s.encoded for s in samples]
        log_preds = trainer.predict_log(encoded)
        hi = float(np.max(log_preds)) - 1e-9
        clamped_trainer = Trainer(
            trainer.model, replace(trainer.config, log_clamp_max=hi))
        seconds, saturated = clamped_trainer.seconds_from_log(
            clamped_trainer.predict_log(encoded))
        expected = int(np.count_nonzero(log_preds > hi))
        assert expected >= 1
        # The count comes back with the call's costs; the trainer keeps
        # no per-call state that a concurrent caller could overwrite.
        assert saturated == expected
        assert not hasattr(clamped_trainer, "last_saturated")
        assert seconds.max() <= np.expm1(max(hi, 0.0)) + 1e-12
        np.testing.assert_array_equal(
            seconds, clamped_trainer.predict_seconds(encoded))

    def test_no_saturation_with_default_clamp(self, samples):
        trainer = make_trainer()
        _, saturated = trainer.seconds_from_log(
            trainer.predict_log([s.encoded for s in samples]))
        assert saturated == 0

    def test_clamp_bound_is_configurable(self, samples):
        trainer = make_trainer(log_clamp_max=2.0)
        seconds = trainer.predict_seconds([s.encoded for s in samples])
        assert seconds.max() <= np.expm1(2.0) + 1e-12
