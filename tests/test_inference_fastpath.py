"""Inference fast path: graph-free forward equivalence and no-grad guarantees.

The graph-free forward (`RAAL.forward_inference`, the only path behind
`Trainer.predict_*`) must be numerically interchangeable with the
autograd forward for every model variant, with and without padding, and
the whole prediction path must never build or retain an autograd graph.
The autograd reference predictions come from `tests/oracles.py`.
"""

import numpy as np
import pytest

from repro.core import RAAL, RAALBatch, RAALConfig, CostPredictor, Trainer, TrainerConfig
from repro.encoding import EncodedPlan, PlanEncoder
from repro.errors import ShapeError
from repro.nn import Tensor, raal_forward_inference
from repro.plan.physical import FileScan, FilterExec, HashAggregate, PhysicalPlan
from repro.cluster.resources import ResourceProfile
from tests.oracles import autograd_predict_log, autograd_predict_seconds

TOL = 1e-8

#: Model-side variant switches (paper names; NE-LSTM differs only in
#: the encoder, so its model config equals RAAL's and the degraded
#: "every other node" child mask is exercised separately below).
VARIANT_SWITCHES = {
    "RAAL": {},
    "NE-LSTM": {},
    "NA-LSTM": {"use_node_attention": False},
    "RAAC": {"feature_layer": "cnn"},
    "no-resource-attention": {"use_resource_attention": False},
}


def make_batch(config: RAALConfig, batch=5, n=9, seed=0, pad=True,
               dense_child_mask=False):
    """Random batch with tree-shaped (or NE-LSTM-degraded) child masks."""
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, n + 1, size=batch) if pad else np.full(batch, n)
    mask = np.zeros((batch, n), dtype=bool)
    child = np.zeros((batch, n, n), dtype=bool)
    for b, length in enumerate(lengths):
        mask[b, :length] = True
        if dense_child_mask:
            # The NE-LSTM encoder emits "every other node" masks.
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
    )


class TestForwardEquivalence:
    @pytest.mark.parametrize("name", sorted(VARIANT_SWITCHES))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("pad", [True, False], ids=["padded", "unpadded"])
    def test_variant_equivalence(self, name, seed, pad):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            seed=seed, **VARIANT_SWITCHES[name])
        model = RAAL(config).eval()
        batch = make_batch(config, seed=seed, pad=pad,
                           dense_child_mask=(name == "NE-LSTM"))
        slow = model(batch).numpy()
        fast = model.forward_inference(batch)
        assert isinstance(fast, np.ndarray)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=TOL)

    def test_equivalence_in_train_mode_uses_eval_semantics(self):
        # forward_inference must match the *eval-mode* autograd forward
        # even if someone forgot to call .eval() (dropout off).
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            dropout=0.5)
        model = RAAL(config).train()
        batch = make_batch(config, seed=3)
        fast = model.forward_inference(batch)
        slow = model.eval()(batch).numpy()
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=TOL)

    def test_single_sample_batch(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        model = RAAL(config).eval()
        batch = make_batch(config, batch=1, n=4, seed=5)
        fast = model.forward_inference(batch)
        assert fast.shape == (1,)
        np.testing.assert_allclose(fast, model(batch).numpy(), rtol=0.0, atol=TOL)

    def test_wrong_node_dim_rejected(self):
        model = RAAL(RAALConfig(node_dim=20))
        bad = make_batch(RAALConfig(node_dim=21))
        with pytest.raises(ShapeError):
            model.forward_inference(bad)

    def test_free_function_matches_method(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        model = RAAL(config).eval()
        batch = make_batch(config, seed=7)
        np.testing.assert_array_equal(
            raal_forward_inference(model, batch), model.forward_inference(batch))


def random_encoded(config: RAALConfig, count=12, max_n=10, seed=0):
    """Random EncodedPlan list with varied node counts (for bucketing)."""
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(2, max_n + 1))
        child = np.zeros((n, n), dtype=bool)
        for i in range(1, n):
            child[i, rng.integers(0, i)] = True
        out.append(EncodedPlan(
            node_features=rng.normal(size=(n, config.node_dim)),
            child_mask=child,
            resources=rng.random(config.resource_dim),
            extras=rng.random(config.extras_dim),
        ))
    return out


class TestPredictionPath:
    @pytest.fixture()
    def trainer(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        return Trainer(RAAL(config), TrainerConfig(batch_size=4))

    def test_fast_matches_autograd_predictions(self, trainer):
        encoded = random_encoded(trainer.model.config, count=13, seed=1)
        fast = trainer.predict_seconds(encoded)
        slow = autograd_predict_seconds(trainer, encoded)
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=1e-6)
        np.testing.assert_allclose(
            trainer.predict_log(encoded),
            autograd_predict_log(trainer.model, encoded,
                                 trainer.config.batch_size),
            rtol=0.0, atol=TOL)

    def test_bucketing_preserves_input_order(self, trainer):
        """Length-sorted buckets, answers back in input order: compare
        against the oracle's arrival-order batches, and against a
        reversed input."""
        encoded = random_encoded(trainer.model.config, count=17, seed=2)
        bucketed = trainer.predict_log(encoded)
        plain = autograd_predict_log(trainer.model, encoded,
                                     trainer.config.batch_size)
        np.testing.assert_allclose(bucketed, plain, rtol=0.0, atol=TOL)
        reversed_preds = trainer.predict_log(encoded[::-1])
        np.testing.assert_allclose(reversed_preds[::-1], bucketed,
                                   rtol=0.0, atol=TOL)

    def test_empty_input(self, trainer):
        assert trainer.predict_seconds([]).shape == (0,)

    def test_no_graph_retained_after_prediction(self, trainer, monkeypatch):
        """Regression: the autograd reference runs under no_grad."""
        captured = []
        original = RAAL.forward

        def spy(self, batch):
            out = original(self, batch)
            captured.append(out)
            return out

        monkeypatch.setattr(RAAL, "forward", spy)
        encoded = random_encoded(trainer.model.config, count=6, seed=3)
        autograd_predict_seconds(trainer, encoded)
        assert captured, "autograd forward was not exercised"
        for out in captured:
            assert isinstance(out, Tensor)
            assert not out.requires_grad
            assert out._parents == ()
        assert all(p.grad is None for p in trainer.model.parameters())

    def test_fast_path_builds_no_tensors(self, trainer, monkeypatch):
        calls = []
        original = RAAL.forward
        monkeypatch.setattr(
            RAAL, "forward",
            lambda self, batch: calls.append(1) or original(self, batch))
        encoded = random_encoded(trainer.model.config, count=6, seed=4)
        out = trainer.predict_seconds(encoded)
        assert isinstance(out, np.ndarray)
        assert not calls, "prediction reached the autograd forward"
        assert all(p.grad is None for p in trainer.model.parameters())


def tiny_plan(threshold: float, rows: float = 100.0) -> PhysicalPlan:
    scan = FileScan(table="t", alias="t", columns=["a"])
    scan.est_rows = rows
    scan.est_bytes = rows * 8
    filt = FilterExec(child=scan, predicates=[])
    filt.est_rows = rows * threshold
    filt.est_bytes = rows * threshold * 8
    agg = HashAggregate(child=filt)
    agg.est_rows = 1.0
    agg.est_bytes = 8.0
    return PhysicalPlan(agg, {"t": "t"})


class TestPredictorNoGrad:
    def test_predict_many_under_no_grad(self, monkeypatch):
        encoder = PlanEncoder(use_onehot=True)
        config = RAALConfig(node_dim=encoder.node_dim, hidden_size=16,
                            embedding_dim=16)
        predictor = CostPredictor(encoder, Trainer(RAAL(config)))
        captured = []
        original = RAAL.forward

        def spy(self, batch):
            out = original(self, batch)
            captured.append(out)
            return out

        monkeypatch.setattr(RAAL, "forward", spy)
        pairs = [(tiny_plan(0.1 * i), ResourceProfile()) for i in range(1, 4)]
        costs = predictor.predict_many(pairs)
        assert costs.shape == (3,)
        assert not captured, "predict_many reached the autograd forward"
        assert all(p.grad is None for p in predictor.trainer.model.parameters())

    def test_predict_grid_shape_and_consistency(self):
        encoder = PlanEncoder(use_onehot=True)
        config = RAALConfig(node_dim=encoder.node_dim, hidden_size=16,
                            embedding_dim=16)
        predictor = CostPredictor(encoder, Trainer(RAAL(config)))
        plans = [tiny_plan(0.2), tiny_plan(0.7)]
        profiles = [ResourceProfile(), ResourceProfile(executor_memory_gb=2.0),
                    ResourceProfile(executors=4)]
        grid = predictor.predict_grid(plans, profiles)
        assert grid.shape == (3, 2)
        for i, profile in enumerate(profiles):
            for j, plan in enumerate(plans):
                assert grid[i, j] == pytest.approx(
                    predictor.predict(plan, profile), abs=1e-6)
