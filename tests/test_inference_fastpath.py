"""Inference fast path: graph-free forward equivalence and no-grad guarantees.

The graph-free forward (`RAAL.forward_inference`, the only path behind
`Trainer.predict_*`) must be numerically interchangeable with the
autograd forward for every model variant, with and without padding, and
the whole prediction path must never build or retain an autograd graph.
The autograd reference predictions come from `tests/oracles.py`.
"""

import sys
import threading

import numpy as np
import pytest

from repro.core import RAAL, RAALBatch, RAALConfig, CostPredictor, Trainer, TrainerConfig
from repro.core.predictor import PredictorConfig
from repro.encoding import EncodedPlan, PlanEncoder
from repro.errors import PredictionError, ShapeError
from repro.nn import Tensor, inference_weights, raal_forward_inference
from repro.plan.physical import FileScan, FilterExec, HashAggregate, PhysicalPlan
from repro.cluster.resources import ResourceProfile
from tests import oracles
from tests.oracles import (autograd_predict_log, autograd_predict_seconds,
                           pairwise_predict_log, raal_forward)

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
        slow = raal_forward(model, batch).numpy()
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
        slow = raal_forward(model.eval(), batch).numpy()
        np.testing.assert_allclose(fast, slow, rtol=0.0, atol=TOL)

    def test_single_sample_batch(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        model = RAAL(config).eval()
        batch = make_batch(config, batch=1, n=4, seed=5)
        fast = model.forward_inference(batch)
        assert fast.shape == (1,)
        np.testing.assert_allclose(fast, raal_forward(model, batch).numpy(), rtol=0.0, atol=TOL)

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

    def test_weight_bundle_is_zero_copy_view(self):
        model = RAAL(RAALConfig(node_dim=20, hidden_size=16,
                                embedding_dim=16)).eval()
        batch = make_batch(model.config, seed=4)
        assert inference_weights(model).embedding_w is model.embedding.weight.data
        before = model.forward_inference(batch)
        # An in-place weight change (what Adam and load_state_dict do)
        # reaches the next forward with nothing to invalidate.
        model.embedding.weight.data += 0.5
        assert not np.array_equal(model.forward_inference(batch), before)


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
        original = oracles.raal_forward

        def spy(model, batch):
            out = original(model, batch)
            captured.append(out)
            return out

        monkeypatch.setattr(oracles, "raal_forward", spy)
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
        original = oracles.raal_forward
        monkeypatch.setattr(
            oracles, "raal_forward",
            lambda model, batch: calls.append(1) or original(model, batch))
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
        original = oracles.raal_forward

        def spy(model, batch):
            out = original(model, batch)
            captured.append(out)
            return out

        monkeypatch.setattr(oracles, "raal_forward", spy)
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


class TestPredictorConfig:
    """Predictor-level settings, the one precision and concurrent use."""

    @pytest.fixture(scope="class")
    def served(self):
        from repro.cluster import PAPER_CLUSTER
        from repro.core.trainer import TrainingSample
        from repro.data import build_imdb_catalog
        from repro.plan import analyze, enumerate_plans
        from repro.sql import parse
        from repro.text import Word2VecConfig

        catalog = build_imdb_catalog(scale=0.05, seed=3)
        sqls = [
            "select count(*) from movie_keyword mk where mk.keyword_id < 25",
            """select count(*) from title t, movie_companies mc
               where t.id = mc.movie_id and mc.company_type_id > 1""",
            """select count(*) from title t, movie_companies mc, movie_keyword mk
               where t.id = mc.movie_id and t.id = mk.movie_id
               and mc.company_id = 4 and mk.keyword_id < 25""",
        ]
        plans = []
        for sql in sqls:
            q = analyze(parse(sql), catalog)
            plans.extend(enumerate_plans(q, catalog)[:4])
        encoder = PlanEncoder.fit(
            plans, word2vec_config=Word2VecConfig(dim=12, epochs=2))
        config = RAALConfig(node_dim=encoder.node_dim,
                            hidden_size=16, embedding_dim=16, latent_dim=8,
                            dense_sizes=(24, 12), seed=0)
        trainer = Trainer(RAAL(config),
                          TrainerConfig(epochs=2, batch_size=4, seed=0))
        samples = [TrainingSample(encoder.encode(p, PAPER_CLUSTER),
                                  1.0 + i * 0.35)
                   for i, p in enumerate(plans)]
        trainer.fit(samples)
        return CostPredictor(encoder, trainer), plans, PAPER_CLUSTER

    def test_default_config_is_legacy_behavior(self, served):
        predictor, plans, profile = served
        pairs = [(p, profile) for p in plans]
        default = predictor.predict_many(pairs)
        explicit = predictor.configured(PredictorConfig()).predict_many(pairs)
        assert np.array_equal(default, explicit)

    def test_only_f64_precision_constructs(self):
        assert PredictorConfig(precision="f64", factor_grids=True)
        for retired in ("f32", "f16", "bf16", "int8"):
            with pytest.raises(PredictionError):
                PredictorConfig(precision=retired)

    def test_invalid_precision_rejected_at_construction(self, served):
        predictor, _, _ = served
        with pytest.raises(PredictionError):
            predictor.configured(PredictorConfig(precision="f8"))

    def test_grid_matches_pairwise_grid(self, served):
        from repro.core.advisor import default_profile_grid

        predictor, plans, _ = served
        profiles = default_profile_grid()[:5]
        grid = predictor.predict_grid(plans[:4], profiles)
        # Pairwise reference: every pair collated as its own row.
        encoded = [predictor.encoder.encode(plan, profile)
                   for profile in profiles for plan in plans[:4]]
        pairwise, _ = predictor.trainer.seconds_from_log(pairwise_predict_log(
            predictor.trainer.model, encoded, 4))
        pairwise = pairwise.reshape(grid.shape)
        rel = np.abs(grid - pairwise) / np.maximum(np.abs(pairwise), 1e-9)
        assert rel.max() <= 1e-9

    def test_concurrent_predict_many_is_safe(self, served):
        from repro.reliability import Deadline

        predictor, plans, profile = served
        shared = predictor.configured(PredictorConfig())
        pairs = [(p, profile) for p in plans]
        expected = shared.predict_many(pairs)
        results = [None] * 6
        errors = []

        def worker(i):
            # Odd workers carry a deadline and run under the watchdog
            # on the shared pool; even ones run on their own thread.
            deadline = Deadline.after(60.0) if i % 2 else None
            try:
                results[i] = shared.predict_many(pairs, deadline=deadline)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        workers = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the workers finely
        try:
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            shared.close()
        assert not any(t.is_alive() for t in workers)
        assert not errors
        for out in results:
            assert np.array_equal(out, expected)
