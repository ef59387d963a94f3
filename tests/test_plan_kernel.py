"""Differential test of the one inference kernel against the autograd oracle.

``BucketExecutor.predict_log`` groups encoded pairs by distinct plan,
runs the plan side of the network once per plan and scores each plan's
own profiles over a padded profile block. Every model variant that can
serve is checked here, at every precision tier and with bucket
threading, against ``tests/oracles.py`` (one autograd row per pair):

* f64 within 1e-8, f32 within 0.5 % — log-space
  error relative to ``max(|reference|, 1)``;
* pair lists that are ragged with duplicate plans, one plan under many
  profiles, many plans under one profile, and more distinct plans than
  one bucket holds.
"""

import numpy as np
import pytest

from repro.core import RAAL, RAALConfig
from repro.core.execution import BucketExecutor, group_by_plan
from repro.encoding import EncodedPlan
from tests.oracles import autograd_predict_log

VARIANTS = {
    "lstm": {},
    "lstm-no-node-attention": {"use_node_attention": False},
    "cnn": {"feature_layer": "cnn"},
    "cnn-no-node-attention": {"feature_layer": "cnn",
                              "use_node_attention": False},
    "resource-blind": {"use_resource_attention": False},
}

BUDGET = {"f64": 1e-8, "f32": 5e-3}
BATCH_SIZE = 32


def make_model(name: str) -> RAAL:
    model = RAAL(RAALConfig(node_dim=20, hidden_size=16, embedding_dim=16,
                            latent_dim=8, dense_sizes=(24, 12), dropout=0.0,
                            seed=3, **VARIANTS[name]))
    model.eval()
    return model


def random_plans(config: RAALConfig, count: int, rng) -> list:
    plans = []
    for _ in range(count):
        k = int(rng.integers(1, 13))
        child = np.zeros((k, k), dtype=bool)
        for i in range(1, k):
            child[i, rng.integers(0, i)] = True
        plans.append(EncodedPlan(
            node_features=rng.normal(size=(k, config.node_dim)),
            child_mask=child, resources=np.zeros(config.resource_dim),
            extras=rng.random(config.extras_dim)))
    return plans


def pair(plan: EncodedPlan, profile: np.ndarray) -> EncodedPlan:
    """A pair sharing its plan's arrays, as the encoder hands them out."""
    return EncodedPlan(node_features=plan.node_features,
                       child_mask=plan.child_mask, resources=profile,
                       extras=plan.extras)


def scenario(kind: str, config: RAALConfig, seed: int) -> list:
    rng = np.random.default_rng(seed)

    def profiles(count):
        return list(rng.random((count, config.resource_dim)))

    if kind == "ragged-duplicates":
        plans, profs = random_plans(config, 12, rng), profiles(9)
        return [pair(plans[int(rng.integers(12))], profs[int(rng.integers(9))])
                for _ in range(70)]
    if kind == "one-plan-many-profiles":
        (plan,) = random_plans(config, 1, rng)
        return [pair(plan, p) for p in profiles(50)]
    if kind == "many-plans-one-profile":
        (profile,) = profiles(1)
        return [pair(p, profile) for p in random_plans(config, 20, rng)]
    if kind == "crosses-buckets":
        plans, profs = random_plans(config, 45, rng), profiles(6)
        pairs = [pair(plan, profs[int(j)]) for plan in plans
                 for j in rng.integers(0, 6, size=int(rng.integers(1, 5)))]
        return [pairs[i] for i in rng.permutation(len(pairs))]
    raise AssertionError(kind)


SCENARIOS = ["ragged-duplicates", "one-plan-many-profiles",
             "many-plans-one-profile", "crosses-buckets"]


@pytest.mark.parametrize("threads", [1, 3])
@pytest.mark.parametrize("precision", sorted(BUDGET))
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_kernel_matches_autograd_oracle(name, precision, threads):
    model = make_model(name)
    with BucketExecutor(model, batch_size=BATCH_SIZE, precision=precision,
                        threads=threads) as executor:
        for seed, kind in enumerate(SCENARIOS):
            pairs = scenario(kind, model.config, seed)
            got, _ = executor.predict_log(pairs)
            want = autograd_predict_log(model, pairs, BATCH_SIZE)
            err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
            assert err.max() <= BUDGET[precision], (kind, err.max())


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_plan_side_runs_once_per_distinct_plan(name, monkeypatch):
    model = make_model(name)
    pairs = scenario("crosses-buckets", model.config, seed=7)
    groups = group_by_plan(pairs)
    assert 32 < len(groups) < len(pairs)
    rows = []
    forward = model.forward_inference

    def counting(batch, weights=None):
        rows.append(batch.node_features.shape[0])
        return forward(batch, weights)

    monkeypatch.setattr(model, "forward_inference", counting)
    preds, buckets = BucketExecutor(model, batch_size=BATCH_SIZE).predict_log(
        pairs)
    assert sum(rows) == len(groups)
    assert buckets == len(rows) == 2
    if name == "resource-blind":
        # The per-plan answer is broadcast to every one of its pairs.
        for members in groups:
            assert np.all(preds[members] == preds[members[0]])


def test_group_by_plan_keys_on_shared_arrays():
    model = make_model("lstm")
    (a, b) = random_plans(model.config, 2, np.random.default_rng(0))
    profile = np.ones(model.config.resource_dim)
    twin = EncodedPlan(node_features=a.node_features.copy(),
                       child_mask=a.child_mask, resources=profile,
                       extras=a.extras)
    pairs = [pair(a, profile), pair(b, profile), pair(a, 2 * profile), twin]
    # Equal content in separate arrays is its own group: pairs encoded
    # separately are never merged.
    assert group_by_plan(pairs) == [[0, 2], [1], [3]]
