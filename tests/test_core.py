"""Tests for repro.core: RAAL model, variants, trainer, predictor, selector."""

import numpy as np
import pytest

from repro.cluster import PAPER_CLUSTER
from repro.core import (
    RAAL,
    RAALBatch,
    RAALConfig,
    CostPredictor,
    PlanSelector,
    Trainer,
    TrainerConfig,
    TrainingSample,
    VARIANTS,
    collate,
    make_model,
    variant,
)
from repro.errors import ShapeError, TrainingError
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.nn import Tensor
from repro.plan import analyze
from repro.sql import parse
from tests.oracles import raal_forward


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def raal_samples(pipeline):
    return pipeline.samples_for(variant("RAAL"), "train")


@pytest.fixture(scope="module")
def small_config(pipeline):
    return pipeline.base_model_config(variant("RAAL"))


def _random_batch(config: RAALConfig, batch=3, n=6, seed=0):
    rng = np.random.default_rng(seed)
    child = np.zeros((batch, n, n), dtype=bool)
    child[:, 2, 0] = child[:, 2, 1] = True
    return RAALBatch(
        node_features=rng.normal(size=(batch, n, config.node_dim)),
        child_mask=child,
        node_mask=np.ones((batch, n), dtype=bool),
        resources=rng.random((batch, config.resource_dim)),
        extras=rng.random((batch, config.extras_dim)),
        targets=rng.random(batch),
    )


class TestRAALModel:
    def test_forward_shape(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        model = RAAL(config)
        out = raal_forward(model, _random_batch(config))
        assert out.shape == (3,)

    def test_wrong_node_dim_rejected(self):
        config = RAALConfig(node_dim=20)
        model = RAAL(config)
        bad = _random_batch(RAALConfig(node_dim=21))
        with pytest.raises(ShapeError):
            raal_forward(model, bad)

    def test_invalid_feature_layer(self):
        with pytest.raises(TrainingError):
            RAAL(RAALConfig(feature_layer="transformer"))

    def test_cnn_variant_forward(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            feature_layer="cnn")
        model = RAAL(config)
        assert raal_forward(model, _random_batch(config)).shape == (3,)

    def test_no_node_attention_forward(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            use_node_attention=False)
        model = RAAL(config)
        assert raal_forward(model, _random_batch(config)).shape == (3,)

    def test_no_resource_attention_smaller_dense_input(self):
        with_ra = RAAL(RAALConfig(node_dim=20, use_resource_attention=True))
        without = RAAL(RAALConfig(node_dim=20, use_resource_attention=False))
        assert with_ra.dense.layers[0].in_features > without.dense.layers[0].in_features

    def test_resource_vector_changes_prediction_only_when_aware(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            use_resource_attention=True)
        model = RAAL(config).eval()
        batch = _random_batch(config)
        out1 = raal_forward(model, batch).numpy().copy()
        batch.resources = batch.resources + 0.3
        out2 = raal_forward(model, batch).numpy()
        assert not np.allclose(out1, out2)

    def test_gradients_flow_to_all_parameters(self):
        config = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            dropout=0.0)
        model = RAAL(config)
        batch = _random_batch(config)
        loss = (raal_forward(model, batch) ** 2.0).sum()
        loss.backward()
        missing = [name for name, p in model.named_parameters() if p.grad is None]
        assert not missing, f"no gradient for {missing}"

    def test_deterministic_construction(self):
        c = RAALConfig(node_dim=20, seed=9)
        a, b = RAAL(c), RAAL(c)
        np.testing.assert_array_equal(a.embedding.weight.data, b.embedding.weight.data)


class TestVariants:
    def test_all_variants_instantiable(self):
        base = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16)
        for name, spec in VARIANTS.items():
            model = make_model(spec, base)
            cfg = RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                             use_node_attention=spec.use_node_attention,
                             feature_layer=spec.feature_layer)
            assert raal_forward(model, _random_batch(cfg)).shape == (3,)

    def test_variant_lookup_case_insensitive(self):
        assert variant("raal").name == "RAAL"

    def test_unknown_variant(self):
        with pytest.raises(KeyError):
            variant("GHOST")

    def test_na_lstm_has_no_node_attention(self):
        base = RAALConfig(node_dim=20)
        model = make_model(variant("NA-LSTM"), base)
        assert model.node_attention is None

    def test_raac_uses_cnn(self):
        base = RAALConfig(node_dim=20)
        model = make_model(variant("RAAC"), base)
        assert model.cnn is not None
        assert model.plan_feature is None

    def test_resource_attention_switch(self):
        base = RAALConfig(node_dim=20)
        aware = make_model(variant("RAAL"), base, use_resource_attention=True)
        blind = make_model(variant("RAAL"), base, use_resource_attention=False)
        assert aware.resource_attention is not None
        assert blind.resource_attention is None


class TestCollate:
    def test_padding_shapes(self, raal_samples):
        batch = collate(raal_samples[:5])
        n = max(s.encoded.num_nodes for s in raal_samples[:5])
        assert batch.node_features.shape[1] == n
        assert batch.child_mask.shape == (5, n, n)
        assert batch.node_mask.shape == (5, n)

    def test_mask_matches_lengths(self, raal_samples):
        batch = collate(raal_samples[:5])
        for i, sample in enumerate(raal_samples[:5]):
            assert batch.node_mask[i].sum() == sample.encoded.num_nodes

    def test_targets_are_log_costs(self, raal_samples):
        batch = collate(raal_samples[:3])
        expected = [np.log1p(s.cost_seconds) for s in raal_samples[:3]]
        np.testing.assert_allclose(batch.targets, expected)

    def test_empty_batch_rejected(self):
        with pytest.raises(TrainingError):
            collate([])


class TestTrainer:
    def test_loss_decreases(self, pipeline, raal_samples, small_config):
        model = RAAL(small_config)
        trainer = Trainer(model, TrainerConfig(epochs=10, seed=0))
        result = trainer.fit(raal_samples)
        assert result.train_losses[-1] < result.train_losses[0]

    def test_too_few_samples_rejected(self, raal_samples, small_config):
        trainer = Trainer(RAAL(small_config))
        with pytest.raises(TrainingError):
            trainer.fit(raal_samples[:2])

    def test_early_stopping_restores_best(self, raal_samples, small_config):
        model = RAAL(small_config)
        trainer = Trainer(model, TrainerConfig(
            epochs=30, early_stopping_patience=2, seed=0))
        result = trainer.fit(raal_samples[:40])
        assert result.best_epoch <= len(result.train_losses) - 1

    def test_predict_seconds_nonnegative(self, raal_samples, small_config):
        model = RAAL(small_config)
        trainer = Trainer(model, TrainerConfig(epochs=4, seed=0))
        trainer.fit(raal_samples)
        preds = trainer.predict_seconds([s.encoded for s in raal_samples[:10]])
        assert (preds >= 0).all()
        assert np.isfinite(preds).all()

    def test_evaluate_loss_empty_rejected(self, small_config):
        trainer = Trainer(RAAL(small_config))
        with pytest.raises(TrainingError):
            trainer.evaluate_loss([])

    def test_training_deterministic(self, raal_samples, small_config):
        def run():
            model = RAAL(small_config)
            trainer = Trainer(model, TrainerConfig(epochs=3, seed=5))
            return trainer.fit(raal_samples[:30]).train_losses

        assert run() == run()


class TestPredictorAndSelector:
    @pytest.fixture(scope="class")
    def predictor(self, pipeline):
        tv = pipeline.train_variant("RAAL", epochs=8)
        return CostPredictor(tv.encoder, tv.trainer)

    def test_predict_single(self, pipeline, predictor):
        record = pipeline.records[0]
        cost = predictor.predict(record.plan, record.resources)
        assert cost >= 0 and np.isfinite(cost)

    def test_predict_many_matches_single(self, pipeline, predictor):
        records = pipeline.records[:4]
        pairs = [(r.plan, r.resources) for r in records]
        many = predictor.predict_many(pairs)
        singles = [predictor.predict(r.plan, r.resources) for r in records]
        np.testing.assert_allclose(many, singles, rtol=1e-6)

    def test_selector_picks_cheapest_predicted(self, pipeline, predictor):
        sql = pipeline.queries[0]
        query = analyze(parse(sql), pipeline.catalog)
        selector = PlanSelector(predictor, pipeline.catalog)
        result = selector.select(query, PAPER_CLUSTER)
        best = result.predicted_costs.min()
        chosen_idx = int(np.argmin(result.predicted_costs))
        assert result.chosen is result.candidates[chosen_idx]
        assert result.predicted_costs[chosen_idx] == best

    def test_selector_default_is_first_candidate(self, pipeline, predictor):
        sql = pipeline.queries[1]
        query = analyze(parse(sql), pipeline.catalog)
        selector = PlanSelector(predictor, pipeline.catalog)
        result = selector.select(query, PAPER_CLUSTER)
        assert result.default is result.candidates[0]

    def test_selector_with_supplied_candidates(self, pipeline, predictor):
        plans = pipeline.collector.plans_for(pipeline.queries[2])
        query = analyze(parse(pipeline.queries[2]), pipeline.catalog)
        selector = PlanSelector(predictor, pipeline.catalog)
        result = selector.select(query, PAPER_CLUSTER, candidates=plans)
        assert result.candidates == plans
