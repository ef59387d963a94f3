"""Training fast path: analytic backward equivalence and fit() parity.

The fused training step (`RAAL.forward_backward`, the only step
`Trainer.fit` takes) must produce, for every model variant, the same
gradients as the autograd path to ≤ 1e-8 per parameter, and `Trainer.fit`
must walk the same loss trajectory as when the autograd reference step
in `tests/oracles.py` computes the gradients (both share the
epoch-persistent bucketed collation, so the gradient kernel is the only
difference).
"""

import numpy as np
import pytest

from repro import obs
from repro.core import RAAL, RAALConfig, Trainer, TrainerConfig
from repro.core.trainer import TrainingSample
from repro.encoding import EncodedPlan
from repro.errors import TrainingError
from repro.nn import Tensor, mse_loss, raal_forward_backward
from repro.nn.layers import Dropout
from tests import oracles
from tests.oracles import autograd_training, raal_forward

TOL = 1e-8
#: Eval-mode forward_backward vs forward_inference on the same batch.
SERVE_TOL = 1e-12

VARIANT_SWITCHES = {
    "RAAL": {},
    "NE-LSTM": {},
    "NA-LSTM": {"use_node_attention": False},
    "RAAC": {"feature_layer": "cnn"},
    "no-resource-attention": {"use_resource_attention": False},
}


def small_config(seed=0, dropout=0.0, **switches) -> RAALConfig:
    return RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                      latent_dim=8, dense_sizes=(24, 12), dropout=dropout,
                      seed=seed, **switches)


def make_batch(config: RAALConfig, batch=5, n=9, seed=0, pad=True,
               dense_child_mask=False):
    """Random *training* batch (targets set) with tree-shaped masks."""
    from repro.core import RAALBatch

    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, n + 1, size=batch) if pad else np.full(batch, n)
    mask = np.zeros((batch, n), dtype=bool)
    child = np.zeros((batch, n, n), dtype=bool)
    for b, length in enumerate(lengths):
        mask[b, :length] = True
        if dense_child_mask:
            block = ~np.eye(length, dtype=bool)
            child[b, :length, :length] = block
        else:
            for i in range(1, length):
                child[b, i, rng.integers(0, i)] = True
    return RAALBatch(
        node_features=rng.normal(size=(batch, n, config.node_dim)),
        child_mask=child,
        node_mask=mask,
        resources=rng.random((batch, config.resource_dim)),
        extras=rng.random((batch, config.extras_dim)),
        targets=rng.normal(size=batch),
    )


def autograd_reference(model, batch):
    """Legacy gradients: autograd forward + mse backward."""
    model.zero_grad()
    loss = mse_loss(raal_forward(model, batch), Tensor(batch.targets))
    loss.backward()
    grads = {name: p.grad.copy() for name, p in model.named_parameters()}
    return float(loss.data), grads


class TestGradientEquivalence:
    @pytest.mark.parametrize("name", sorted(VARIANT_SWITCHES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pad", [True, False], ids=["padded", "unpadded"])
    def test_variant_equivalence(self, name, seed, pad):
        config = small_config(seed=seed, **VARIANT_SWITCHES[name])
        model = RAAL(config).train()
        batch = make_batch(config, seed=seed, pad=pad,
                           dense_child_mask=(name == "NE-LSTM"))
        ref_loss, ref = autograd_reference(model, batch)
        model.zero_grad()
        loss, pred = model.forward_backward(batch)
        assert isinstance(pred, np.ndarray) and pred.shape == (batch.size,)
        assert loss == pytest.approx(ref_loss, abs=TOL)
        for pname, param in model.named_parameters():
            assert param.grad is not None, pname
            dev = float(np.max(np.abs(param.grad - ref[pname])))
            assert dev <= TOL, f"{name}/{pname}: grad deviation {dev:.3e}"
        # Train/serve agreement: in eval mode the training step's
        # forward is the serving forward.
        _, trained = model.eval().forward_backward(batch)
        np.testing.assert_allclose(trained, model.forward_inference(batch),
                                   rtol=0.0, atol=SERVE_TOL)

    def test_dropout_masks_align_with_autograd(self):
        """In train mode both paths draw identical masks from the same rng."""
        config = small_config(dropout=0.4)
        model = RAAL(config).train()
        batch = make_batch(config, seed=11)
        droppers = [l for l in model.dense if isinstance(l, Dropout)]
        states = [l._rng.bit_generator.state for l in droppers]
        ref_loss, ref = autograd_reference(model, batch)
        for layer, state in zip(droppers, states):
            layer._rng.bit_generator.state = state
        model.zero_grad()
        loss, _ = model.forward_backward(batch)
        assert loss == pytest.approx(ref_loss, abs=TOL)
        for pname, param in model.named_parameters():
            np.testing.assert_allclose(param.grad, ref[pname],
                                       rtol=0.0, atol=TOL, err_msg=pname)

    def test_gradients_accumulate(self):
        """Two calls without zero_grad sum, like autograd .backward()."""
        config = small_config()
        model = RAAL(config).train()
        batch = make_batch(config, seed=4)
        model.zero_grad()
        model.forward_backward(batch)
        once = {n: p.grad.copy() for n, p in model.named_parameters()}
        model.forward_backward(batch)
        for pname, param in model.named_parameters():
            np.testing.assert_allclose(param.grad, 2.0 * once[pname],
                                       rtol=0.0, atol=TOL, err_msg=pname)

    def test_missing_targets_rejected(self):
        config = small_config()
        model = RAAL(config)
        batch = make_batch(config, seed=5)
        batch.targets = None
        with pytest.raises(TrainingError):
            model.forward_backward(batch)

    def test_free_function_matches_method(self):
        config = small_config()
        model = RAAL(config).train()
        batch = make_batch(config, seed=6)
        model.zero_grad()
        loss_m, pred_m = model.forward_backward(batch)
        model.zero_grad()
        loss_f, pred_f = raal_forward_backward(model, batch)
        assert loss_m == loss_f
        np.testing.assert_array_equal(pred_m, pred_f)


def random_samples(config: RAALConfig, count=28, max_n=10, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        child = np.zeros((n, n), dtype=bool)
        for i in range(1, n):
            child[i, rng.integers(0, i)] = True
        encoded = EncodedPlan(
            node_features=rng.normal(size=(n, config.node_dim)),
            child_mask=child,
            resources=rng.random(config.resource_dim),
            extras=rng.random(config.extras_dim),
        )
        out.append(TrainingSample(encoded, float(rng.random() * 20.0)))
    return out


def fit_once(autograd: bool = False, epochs=5, dropout=0.1, seed=0):
    """Fit a small model; ``autograd`` swaps in the reference step."""
    config = small_config(seed=seed, dropout=dropout)
    model = RAAL(config)
    trainer = Trainer(model, TrainerConfig(
        epochs=epochs, batch_size=8,
        early_stopping_patience=epochs, seed=seed))
    samples = random_samples(config, seed=seed)
    if autograd:
        with autograd_training(model):
            return trainer.fit(samples), model
    return trainer.fit(samples), model


class TestFitParity:
    def test_fast_and_legacy_fit_walk_the_same_trajectory(self):
        """Same seed ⇒ same loss history whichever path computes grads.

        Both paths consume the same pre-collated batches, batch order,
        and dropout rng stream; the only difference is the gradient
        kernel, equivalent to ≤ 1e-8 — so the loss trajectories must
        coincide to float accumulation error.
        """
        fast, fast_model = fit_once()
        legacy, legacy_model = fit_once(autograd=True)
        assert len(fast.train_losses) == len(legacy.train_losses)
        assert fast.best_epoch == legacy.best_epoch
        np.testing.assert_allclose(fast.train_losses, legacy.train_losses,
                                   rtol=0.0, atol=1e-7)
        np.testing.assert_allclose(fast.val_losses, legacy.val_losses,
                                   rtol=0.0, atol=1e-7)
        for (pname, fp), (_, lp) in zip(fast_model.named_parameters(),
                                        legacy_model.named_parameters()):
            np.testing.assert_allclose(fp.data, lp.data, rtol=0.0, atol=1e-7,
                                       err_msg=pname)

    def test_fast_fit_is_deterministic(self):
        one, _ = fit_once()
        two, _ = fit_once()
        assert one.train_losses == two.train_losses
        assert one.val_losses == two.val_losses
        assert one.best_epoch == two.best_epoch

    def test_fit_records_throughput(self):
        result, _ = fit_once(epochs=3)
        assert len(result.samples_per_sec) == len(result.train_losses)
        assert all(t > 0 for t in result.samples_per_sec)

    def test_evaluate_loss_fast_matches_legacy(self):
        config = small_config()
        model = RAAL(config)
        samples = random_samples(config, count=13, seed=3)
        trainer = Trainer(model, TrainerConfig(batch_size=4))
        fast = trainer.evaluate_loss(samples)
        with autograd_training(model):
            legacy = trainer.evaluate_loss(samples)
        assert fast == pytest.approx(legacy, abs=TOL)

    def test_fast_fit_never_calls_autograd_forward(self, monkeypatch):
        calls = []
        original = oracles.raal_forward
        monkeypatch.setattr(
            oracles, "raal_forward",
            lambda model, batch: calls.append(1) or original(model, batch))
        fit_once(epochs=2)
        assert not calls, "fit reached the autograd forward"


class TestTrainingTelemetry:
    def test_fit_emits_throughput_metrics_and_events(self):
        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            result, _ = fit_once(epochs=2)
        reg = telemetry.registry
        tput = reg.histogram("train.samples_per_sec").snapshot()
        assert tput["count"] == len(result.train_losses)
        assert tput["sum"] > 0
        assert reg.counter("train.batches").value == \
            len(result.train_losses) * 4  # 26 train samples / batch 8
        epochs = telemetry.events.events(component="trainer", event="epoch")
        assert len(epochs) == len(result.train_losses)
        for event in epochs:
            assert event["throughput"] > 0

