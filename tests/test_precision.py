"""Precision tiers: f32 equivalence, the per-plan kernel, threading.

The contract under test (DESIGN.md "Precision-tiered inference"):

* the default f64 tier runs the same arithmetic whether or not a
  weight bundle is passed explicitly (bitwise);
* the f32 tier agrees with f64 within float32 rounding accumulated
  over the network (budget: 1e-4 relative in seconds space);
* the one inference kernel — one plan-side pass per distinct plan,
  each plan scored under its profile block — is numerically
  equivalent to the pairwise computation (one row per pair) at every
  tier (same math, regrouped GEMMs);
* bucket-parallel execution changes nothing but wall-clock: outputs
  are bitwise equal to the single-thread run at the same tier;
* masked softmax entries produce no denormals at either dtype.
"""

import threading

import numpy as np
import pytest

from repro.core import RAAL, RAALBatch, RAALConfig
from repro.core.execution import BucketExecutor, collate_inference
from repro.errors import PredictionError, ShapeError
from repro.nn.arena import ScratchArena
from repro.nn.inference import _softmax, raal_forward_inference
from repro.nn.precision import (
    PRECISIONS,
    inference_weights,
    invalidate_inference_cache,
    resolve_dtype,
    softmax_floor,
)
from tests.oracles import pairwise_predict_log

#: Documented end-to-end tolerance budgets, log space (model output).
LOG_TOL = {"f64": 0.0, "f32": 1e-5}

VARIANT_SWITCHES = {
    "RAAL": {},
    "NA-LSTM": {"use_node_attention": False},
    "RAAC": {"feature_layer": "cnn"},
    "no-resource-attention": {"use_resource_attention": False},
}


def small_config(seed=0, **switches) -> RAALConfig:
    return RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                      latent_dim=8, dense_sizes=(24, 12), dropout=0.0,
                      seed=seed, **switches)


def make_batch(config: RAALConfig, batch=6, n=9, seed=0) -> RAALBatch:
    rng = np.random.default_rng(seed)
    lengths = rng.integers(2, n + 1, size=batch)
    mask = np.zeros((batch, n), dtype=bool)
    child = np.zeros((batch, n, n), dtype=bool)
    for b, length in enumerate(lengths):
        mask[b, :length] = True
        for i in range(1, length):
            child[b, i, rng.integers(0, i)] = True
    return RAALBatch(
        node_features=rng.normal(size=(batch, n, config.node_dim)),
        child_mask=child,
        node_mask=mask,
        resources=rng.random((batch, config.resource_dim)),
        extras=rng.random((batch, config.extras_dim)),
    )


def eval_model(name, seed=0):
    model = RAAL(small_config(seed=seed, **VARIANT_SWITCHES[name]))
    model.eval()
    return model


# ---------------------------------------------------------------------------
# Weight bundles
# ---------------------------------------------------------------------------
class TestInferenceWeights:
    def test_unknown_precision_rejected(self):
        for retired in ("f16", "int8"):
            with pytest.raises(PredictionError):
                resolve_dtype(retired)
        with pytest.raises(PredictionError):
            inference_weights(eval_model("RAAL"), "bf16")

    def test_f64_bundle_is_zero_copy_view(self):
        model = eval_model("RAAL")
        weights = inference_weights(model, "f64")
        assert weights.embedding_w is model.embedding.weight.data

    def test_cache_hit_and_invalidate_on_mutation(self):
        model = eval_model("RAAL")
        w1 = inference_weights(model, "f32")
        assert inference_weights(model, "f32") is w1  # fingerprint hit
        # In-place mutation (what Adam and load_state_dict do) must be
        # detected by the fingerprint without any explicit invalidation.
        model.embedding.weight.data += 0.5
        w2 = inference_weights(model, "f32")
        assert w2 is not w1
        assert not np.array_equal(w2.embedding_w, w1.embedding_w)
        invalidate_inference_cache(model)
        assert inference_weights(model, "f32") is not w2


# ---------------------------------------------------------------------------
# Forward equivalence across tiers
# ---------------------------------------------------------------------------
class TestPrecisionEquivalence:
    @pytest.mark.parametrize("name", sorted(VARIANT_SWITCHES))
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_forward_within_budget(self, name, precision):
        model = eval_model(name, seed=2)
        batch = make_batch(model.config, seed=3)
        reference = raal_forward_inference(model, batch)
        out = raal_forward_inference(
            model, batch, inference_weights(model, precision))
        if precision == "f64":
            assert np.array_equal(out, reference)  # bitwise
        else:
            assert out.dtype == np.float32  # no silent f64 upcast
            assert np.abs(out - reference).max() <= LOG_TOL[precision]

    @pytest.mark.parametrize("name", sorted(VARIANT_SWITCHES))
    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_factored_grid_matches_pairwise(self, name, precision):
        model = eval_model(name, seed=4)
        plans = encoded_workload(model.config, count=5, seed=5)
        rng = np.random.default_rng(6)
        profiles = rng.random((7, model.config.resource_dim))
        pairs = grid_pairs(plans, profiles)
        grid, _ = BucketExecutor(model, batch_size=4,
                                 precision=precision).predict_log(pairs)
        grid = grid.reshape(7, 5)
        # Pairwise reference at the same tier: the per-plan kernel is
        # the same math with regrouped GEMMs, so agreement is at
        # rounding level of the execution dtype, not the tier budget.
        tol = 1e-12 if precision == "f64" else 1e-5
        pairwise = pairwise_predict_log(model, pairs, 4,
                                        inference_weights(model, precision))
        assert np.abs(grid - pairwise.reshape(7, 5)).max() <= tol


# ---------------------------------------------------------------------------
# Bucketed / threaded execution engine
# ---------------------------------------------------------------------------
def grid_pairs(plans, profiles):
    """Profile-major (plan, profile) pairs sharing each plan's arrays,
    as :meth:`PlanEncoder.encode_many` hands them out."""
    from repro.encoding import EncodedPlan

    return [EncodedPlan(node_features=e.node_features,
                        child_mask=e.child_mask, resources=profile,
                        extras=e.extras)
            for profile in profiles for e in plans]


def encoded_workload(config, count=23, seed=9):
    """Encoded-plan stand-ins with varying node counts."""
    from repro.encoding import EncodedPlan

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        k = int(rng.integers(2, 11))
        child = np.zeros((k, k), dtype=bool)
        for i in range(1, k):
            child[i, rng.integers(0, i)] = True
        out.append(EncodedPlan(
            node_features=rng.normal(size=(k, config.node_dim)),
            child_mask=child,
            resources=rng.random(config.resource_dim),
            extras=rng.random(config.extras_dim)))
    return out


class TestBucketExecutor:
    def test_threaded_matches_single_thread_bitwise(self):
        model = eval_model("RAAL", seed=1)
        encoded = encoded_workload(model.config)
        for precision in PRECISIONS:
            single = BucketExecutor(model, batch_size=4, precision=precision)
            with BucketExecutor(model, batch_size=4, precision=precision,
                                threads=4) as threaded:
                a, _ = single.predict_log(encoded)
                b, _ = threaded.predict_log(encoded)
            # Same buckets, same kernels — threading must not change
            # a single bit, only the wall-clock.
            assert np.array_equal(a, b), precision

    def test_threaded_grid_matches_single_thread_bitwise(self):
        model = eval_model("RAAL", seed=1)
        profiles = np.random.default_rng(3).random(
            (6, model.config.resource_dim))
        pairs = grid_pairs(encoded_workload(model.config), profiles)
        single = BucketExecutor(model, batch_size=4, precision="f32")
        with BucketExecutor(model, batch_size=4, precision="f32",
                            threads=4) as threaded:
            a, buckets = single.predict_log(pairs)
            b, _ = threaded.predict_log(pairs)
        assert buckets == 6  # 23 distinct plans, 4 per bucket
        assert np.array_equal(a, b)

    def test_collate_inference_matches_training_collate(self):
        from repro.core.trainer import TrainingSample, collate

        model = eval_model("RAAL")
        encoded = encoded_workload(model.config, count=5)
        reference = collate([TrainingSample(e, float(i))
                             for i, e in enumerate(encoded)])
        batch = collate_inference(encoded, np.float64, arena=ScratchArena())
        for name in ("node_features", "child_mask", "node_mask",
                     "resources", "extras"):
            got, want = getattr(batch, name), getattr(reference, name)
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        assert batch.targets is None
        np.testing.assert_array_equal(reference.targets,
                                      np.log1p(np.arange(5.0)))

    def test_arena_reuses_buffers(self):
        arena = ScratchArena()
        a = arena.empty("x", (4, 8), np.float32)
        bytes_after_first = arena.allocated_bytes
        b = arena.empty("x", (2, 8), np.float32)
        assert arena.allocated_bytes == bytes_after_first
        assert b.base is a.base  # same backing buffer
        z = arena.zeros("x", (3, 8), np.float32)
        assert np.all(z == 0)


# ---------------------------------------------------------------------------
# Softmax denormal / floor behavior (satellite: dtype-aware −200 fix)
# ---------------------------------------------------------------------------
class TestSoftmaxFloors:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_masked_entries_produce_no_denormals(self, dtype):
        tiny = np.finfo(dtype).tiny  # smallest *normal* magnitude
        scores = np.zeros((3, 200), dtype=dtype)
        scores[:, 1:] = np.asarray(-1e9, dtype=dtype)  # masked
        out = _softmax(scores, axis=-1)
        assert out.dtype == np.dtype(dtype)
        assert np.all(np.isfinite(out))
        np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-6)
        nonzero = out[out != 0.0]
        # Every surviving weight is a normal number: no slow denormal
        # arithmetic downstream of the masked softmax.
        assert np.all(np.abs(nonzero) >= tiny)

    def test_floor_values_documented(self):
        assert softmax_floor(np.float64) == -200.0
        assert softmax_floor(np.float32) == -60.0
        with pytest.raises(ShapeError):
            softmax_floor(np.int32)

    def test_f32_floor_survives_row_normalization(self):
        # exp(floor) divided by a full row of unmasked logits must stay
        # normal — the float64 floor (−200) would underflow to 0 in
        # float32 (exp(−200) ≈ 1e−87 << 1e−38).
        floor = softmax_floor(np.float32)
        value = np.exp(np.float32(floor)) / np.float32(200.0)
        assert value >= np.finfo(np.float32).tiny

    def test_float64_floor_unchanged(self):
        # The historical constant: f64 softmax behavior is bit-frozen.
        scores = np.array([[0.0, -300.0, -100.0]])
        out = _softmax(scores)
        expected = np.exp(np.array([0.0, -200.0, -100.0]))
        expected /= expected.sum()
        assert np.array_equal(out.ravel(), expected)


# ---------------------------------------------------------------------------
# Predictor-level integration (config plumbing + guarded chain)
# ---------------------------------------------------------------------------
class TestPredictorIntegration:
    @pytest.fixture(scope="class")
    def served(self):
        from repro.cluster import PAPER_CLUSTER
        from repro.core.predictor import CostPredictor, PredictorConfig
        from repro.core.trainer import Trainer, TrainerConfig, TrainingSample
        from repro.data import build_imdb_catalog
        from repro.encoding import PlanEncoder
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
        profile = PAPER_CLUSTER
        config = RAALConfig(node_dim=encoder.node_dim,
                            hidden_size=16, embedding_dim=16, latent_dim=8,
                            dense_sizes=(24, 12), seed=0)
        trainer = Trainer(RAAL(config),
                          TrainerConfig(epochs=2, batch_size=4, seed=0))
        samples = [TrainingSample(encoder.encode(p, profile), 1.0 + i * 0.35)
                   for i, p in enumerate(plans)]
        trainer.fit(samples)
        return CostPredictor(encoder, trainer), plans, profile, PredictorConfig

    def test_default_config_is_legacy_behavior(self, served):
        predictor, plans, profile, PredictorConfig = served
        pairs = [(p, profile) for p in plans]
        default = predictor.predict_many(pairs)
        explicit = predictor.configured(PredictorConfig()).predict_many(pairs)
        assert np.array_equal(default, explicit)

    @pytest.mark.parametrize("precision", ["f32"])
    def test_precision_tiers_within_budget_seconds(self, served, precision):
        predictor, plans, profile, PredictorConfig = served
        pairs = [(p, profile) for p in plans]
        reference = predictor.predict_many(pairs)
        tiered = predictor.configured(
            PredictorConfig(precision=precision, threads=2))
        out = tiered.predict_many(pairs)
        rel = np.abs(out - reference) / np.maximum(np.abs(reference), 1e-9)
        # seconds-space budget: expm1 amplifies log-space error by
        # roughly the cost magnitude, still far under the tier budget.
        assert rel.max() <= 1e-4

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_factored_grid_matches_pairwise_grid(self, served, precision):
        from repro.core.advisor import default_profile_grid

        predictor, plans, _, PredictorConfig = served
        profiles = default_profile_grid()[:5]
        tiered = predictor.configured(PredictorConfig(precision=precision))
        grid = tiered.predict_grid(plans[:4], profiles)
        # Pairwise reference: every pair collated as its own row.
        encoded = [predictor.encoder.encode(plan, profile)
                   for profile in profiles for plan in plans[:4]]
        pairwise, _ = predictor.trainer.seconds_from_log(pairwise_predict_log(
            predictor.trainer.model, encoded, 4, tiered.executor.weights()))
        pairwise = pairwise.reshape(grid.shape)
        rel = np.abs(grid - pairwise) / np.maximum(np.abs(pairwise), 1e-9)
        assert rel.max() <= (1e-9 if precision == "f64" else 1e-4)

    @pytest.mark.parametrize("precision", ["f32"])
    def test_guarded_chain_uses_configured_precision(self, served, precision):
        from repro.reliability.guard import GuardedCostPredictor

        predictor, plans, profile, PredictorConfig = served
        pairs = [(p, profile) for p in plans]
        reference = predictor.predict_many(pairs)
        guarded = GuardedCostPredictor(
            predictor.configured(PredictorConfig(precision=precision)))
        result = guarded.predict_many_explained(pairs)
        assert result.source == "raal"
        rel = (np.abs(result.costs - reference)
               / np.maximum(np.abs(reference), 1e-9))
        assert rel.max() <= 1e-4

    def test_invalid_precision_rejected_at_construction(self, served):
        predictor, _, _, PredictorConfig = served
        with pytest.raises(PredictionError):
            predictor.configured(PredictorConfig(precision="f8"))

    def test_concurrent_predict_many_is_safe(self, served):
        predictor, plans, profile, PredictorConfig = served
        tiered = predictor.configured(PredictorConfig(precision="f32",
                                                      threads=2))
        pairs = [(p, profile) for p in plans]
        expected = tiered.predict_many(pairs)
        results = [None] * 6
        errors = []

        def worker(i):
            try:
                results[i] = tiered.predict_many(pairs)
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(i,))
                   for i in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        for out in results:
            assert np.array_equal(out, expected)
