"""Differential test of the one inference kernel against the autograd oracle.

``BucketExecutor.predict_log`` groups encoded pairs by distinct plan,
runs the plan side of the network once per plan and scores each plan's
own profiles over a padded profile block. Every model variant that can
serve is checked here, on the caller's thread (no deadline) and under
the deadline watchdog (the executor's worker pool), from one caller and
from three concurrent ones:

* against ``tests/oracles.py``'s autograd forward (one row per pair)
  within 1e-8 — log-space error relative to ``max(|reference|, 1)`` —
  on pair lists that are ragged with duplicate plans, one plan under
  many profiles, many plans under one profile, and more distinct plans
  than one bucket holds;
* against the graph-free pairwise forward within 1e-12: the same math
  with regrouped GEMMs, so agreement is at rounding level;
* the watchdog path against the caller-thread path, bit for bit.

The arena-backed collation and the masked softmax's logit floor are
checked here too, and so is the plan-side memo: a frozen model's
executor computes each plan's plan side once (hits agree with a fresh
forward within 1e-12), a writable model's memo lives for one call, the
memo is bounded by its capacity, and fault hooks and deadlines still
reach memo hits.
"""

import threading
import time

import numpy as np
import pytest

import repro.core.execution as execution
from repro.core import RAAL, RAALConfig
from repro.core.execution import BucketExecutor, collate_inference, group_by_plan
from repro.encoding import EncodedPlan
from repro.errors import DeadlineExceeded
from repro.nn.arena import ScratchArena
from repro.nn.inference import (_softmax, freeze_weights, inference_weights,
                                is_immutable, raal_forward_inference)
from repro.reliability import Deadline
from tests.faults import FaultInjector
from tests.oracles import autograd_predict_log, pairwise_predict_log

VARIANTS = {
    "lstm": {},
    "lstm-no-node-attention": {"use_node_attention": False},
    "cnn": {"feature_layer": "cnn"},
    "cnn-no-node-attention": {"feature_layer": "cnn",
                              "use_node_attention": False},
    "resource-blind": {"use_resource_attention": False},
}

BUDGET = 1e-8
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


def count_plan_side_rows(monkeypatch) -> list:
    """Plan rows per plan-side pass the executor runs, as a list."""
    rows = []
    side = execution.plan_side_forward

    def counting(weights, node_features, *args):
        rows.append(node_features.shape[0])
        return side(weights, node_features, *args)

    monkeypatch.setattr(execution, "plan_side_forward", counting)
    return rows


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


@pytest.mark.parametrize("callers", [1, 3])
@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_kernel_matches_autograd_oracle(name, callers):
    """Each caller scores every scenario with no deadline (its own
    thread) and with a generous one (the watchdog pool); concurrent
    callers share one executor."""
    model = make_model(name)
    cases = [(kind, scenario(kind, model.config, seed))
             for seed, kind in enumerate(SCENARIOS)]
    got: dict = {}

    def call(caller: int) -> None:
        for kind, pairs in cases:
            for budget in (None, 60.0):
                deadline = None if budget is None else Deadline.after(budget)
                got[caller, kind, budget], _ = executor.predict_log(
                    pairs, deadline=deadline)

    with BucketExecutor(model, batch_size=BATCH_SIZE) as executor:
        threads = [threading.Thread(target=call, args=(c,))
                   for c in range(callers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
    assert len(got) == callers * len(cases) * 2
    for kind, pairs in cases:
        want = autograd_predict_log(model, pairs, BATCH_SIZE)
        for (_, got_kind, budget), preds in got.items():
            if got_kind == kind:
                err = np.abs(preds - want) / np.maximum(np.abs(want), 1.0)
                assert err.max() <= BUDGET, (kind, budget, err.max())


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_passed_bundle_is_bitwise_default(name):
    model = make_model(name)
    rng = np.random.default_rng(3)
    batch = collate_inference(
        [pair(plan, rng.random(model.config.resource_dim))
         for plan in random_plans(model.config, 6, rng)])
    np.testing.assert_array_equal(
        raal_forward_inference(model, batch, inference_weights(model)),
        raal_forward_inference(model, batch))


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_grid_matches_pairwise_forward(name):
    model = make_model(name)
    rng = np.random.default_rng(5)
    plans = random_plans(model.config, 5, rng)
    profiles = rng.random((7, model.config.resource_dim))
    pairs = [pair(plan, profile) for profile in profiles for plan in plans]
    grid, _ = BucketExecutor(model, batch_size=4).predict_log(pairs)
    # Same math, regrouped GEMMs: agreement at float64 rounding level.
    pairwise = pairwise_predict_log(model, pairs, 4)
    assert np.abs(grid - pairwise).max() <= 1e-12


@pytest.mark.parametrize("kind", ["many-plans-one-profile", "crosses-buckets"])
def test_threaded_matches_single_thread_bitwise(kind, monkeypatch):
    """The watchdog path (a pool thread) equals the caller-thread path."""
    model = make_model("lstm")
    pairs = scenario(kind, model.config, seed=9)
    forward = model.forward_inference
    threads = []

    def recording(batch, weights=None, plan_side=None):
        threads.append(threading.current_thread())
        return forward(batch, weights, plan_side)

    monkeypatch.setattr(model, "forward_inference", recording)
    with BucketExecutor(model, batch_size=4) as executor:
        a, buckets = executor.predict_log(pairs)
        caller = set(threads)
        threads.clear()
        b, _ = executor.predict_log(pairs, deadline=Deadline.after(60.0))
    assert buckets > 1
    assert caller == {threading.current_thread()}
    assert threading.current_thread() not in threads
    # Same buckets, same kernels: the hand-off changes only the thread.
    assert np.array_equal(a, b)


def test_collate_inference_matches_training_collate():
    from repro.core.trainer import TrainingSample, collate

    model = make_model("lstm")
    encoded = random_plans(model.config, 5, np.random.default_rng(9))
    reference = collate([TrainingSample(e, float(i))
                         for i, e in enumerate(encoded)])
    batch = collate_inference(encoded, arena=ScratchArena())
    for name in ("node_features", "child_mask", "node_mask",
                 "resources", "extras"):
        got, want = getattr(batch, name), getattr(reference, name)
        assert got.dtype == want.dtype, name
        assert np.array_equal(got, want), name
    assert batch.targets is None
    np.testing.assert_array_equal(reference.targets, np.log1p(np.arange(5.0)))


def test_arena_reuses_buffers():
    arena = ScratchArena()
    a = arena.empty("x", (4, 8), np.float64)
    bytes_after_first = arena.allocated_bytes
    b = arena.empty("x", (2, 8), np.float64)
    assert arena.allocated_bytes == bytes_after_first
    assert b.base is a.base  # same backing buffer
    z = arena.zeros("x", (3, 8), np.float64)
    assert np.all(z == 0)


def test_masked_softmax_produces_no_denormals():
    scores = np.zeros((3, 200))
    scores[:, 1:] = -1e9  # masked
    out = _softmax(scores, axis=-1)
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out.sum(axis=-1), 1.0, rtol=1e-12)
    # Every surviving weight is a normal number: no slow denormal
    # arithmetic downstream of the masked softmax.
    nonzero = out[out != 0.0]
    assert np.all(np.abs(nonzero) >= np.finfo(np.float64).tiny)


def test_softmax_floor_unchanged():
    # Logits below the floor (-200 after the max shift) are clipped to
    # it: the historical constant, so softmax output is bit-frozen.
    out = _softmax(np.array([[0.0, -300.0, -100.0]]))
    expected = np.exp(np.array([0.0, -200.0, -100.0]))
    expected /= expected.sum()
    assert np.array_equal(out.ravel(), expected)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_plan_side_runs_once_per_distinct_plan(name, monkeypatch):
    model = make_model(name)
    pairs = scenario("crosses-buckets", model.config, seed=7)
    groups = group_by_plan(pairs)
    assert 32 < len(groups) < len(pairs)
    rows = count_plan_side_rows(monkeypatch)
    sizes = []
    forward = model.forward_inference

    def counting(batch, weights=None, plan_side=None):
        sizes.append(batch.size)
        return forward(batch, weights, plan_side)

    monkeypatch.setattr(model, "forward_inference", counting)
    preds, buckets = BucketExecutor(model, batch_size=BATCH_SIZE).predict_log(
        pairs)
    assert sum(rows) == sum(sizes) == len(groups)
    assert buckets == len(sizes) == 2
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


# -- plan-side memo ----------------------------------------------------------
MEMO_SIZE = 256  # the encoder's default cache_size


def cached(pairs: list) -> list:
    """The pairs with read-only plan arrays, as the encoder's cache
    hands them out (the only plans the memo keeps)."""
    for e in pairs:
        for array in (e.node_features, e.child_mask, e.extras):
            array.setflags(write=False)
    return pairs


def frozen_model(name: str) -> RAAL:
    model = make_model(name)
    freeze_weights(model)
    return model


def assert_close(got, want, budget=1e-12):
    err = np.abs(got - want) / np.maximum(np.abs(want), 1.0)
    assert err.max() <= budget, err.max()


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_frozen_memo_runs_plan_side_once(name, monkeypatch):
    model = frozen_model(name)
    pairs = cached(scenario("crosses-buckets", model.config, seed=7))
    fresh, _ = BucketExecutor(model, batch_size=BATCH_SIZE).predict_log(pairs)
    rows = count_plan_side_rows(monkeypatch)
    with BucketExecutor(model, BATCH_SIZE, memo_size=MEMO_SIZE) as executor:
        first, _ = executor.predict_log(pairs)
        assert sum(rows) == len(group_by_plan(pairs))
        rows.clear()
        second, buckets = executor.predict_log(pairs)
    assert rows == [] and buckets == 2
    assert_close(first, fresh)
    assert_close(second, fresh)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_mixed_hit_miss_bucket_matches_all_miss(name, monkeypatch):
    model = frozen_model(name)
    pairs = cached(scenario("ragged-duplicates", model.config, seed=4))
    groups = group_by_plan(pairs)
    warm = [pairs[members[0]] for members in groups[::2]]
    want, _ = BucketExecutor(model, batch_size=BATCH_SIZE).predict_log(pairs)
    rows = count_plan_side_rows(monkeypatch)
    with BucketExecutor(model, BATCH_SIZE, memo_size=MEMO_SIZE) as executor:
        executor.predict_log(warm)
        rows.clear()
        got, buckets = executor.predict_log(pairs)
    # One bucket: the warmed plans hit, the rest run one plan-side pass.
    assert buckets == 1
    assert rows == [len(groups) - len(warm)]
    assert_close(got, want)


def test_frozen_weights_reject_writes():
    model = frozen_model("lstm")
    params = model.parameters()
    assert all(is_immutable(p.data) for p in params)
    for p in params:
        with pytest.raises(ValueError):
            p.data[...] = 0.0
        with pytest.raises(ValueError):
            p.data.setflags(write=True)
        with pytest.raises(ValueError):
            p.data.reshape(-1).setflags(write=True)
    with pytest.raises(ValueError):
        FaultInjector(seed=0).corrupt_weights(model)
    with pytest.raises(ValueError):
        model.load_state_dict(make_model("lstm").state_dict())
    # A read-only view of writable memory is not immutable.
    view = np.zeros(3).view()
    view.setflags(write=False)
    assert not is_immutable(view)


@pytest.mark.parametrize("name", sorted(VARIANTS))
def test_writable_model_sees_corruption_on_next_call(name):
    model = make_model(name)
    pairs = cached(scenario("many-plans-one-profile", model.config, seed=2))
    with BucketExecutor(model, BATCH_SIZE, memo_size=MEMO_SIZE) as executor:
        before, _ = executor.predict_log(pairs)
        assert np.all(np.isfinite(before))
        # Only the plan side reads the embedding: a memo kept past the
        # first call would hide the corruption.
        FaultInjector(seed=0).corrupt_weights(model.embedding)
        after, _ = executor.predict_log(pairs)
    assert not np.any(np.isfinite(after))


@pytest.mark.parametrize("capacity", [0, 5])
def test_memo_bounded_by_capacity(capacity, monkeypatch):
    model = frozen_model("lstm")
    pairs = cached(scenario("crosses-buckets", model.config, seed=7))
    distinct = len(group_by_plan(pairs))
    rows = count_plan_side_rows(monkeypatch)
    with BucketExecutor(model, BATCH_SIZE, memo_size=capacity) as executor:
        for _ in range(2):
            executor.predict_log(pairs)
            assert len(executor._memo) == capacity
        # At most `capacity` plans were kept for the second call.
        assert sum(rows) >= 2 * distinct - capacity
        executor.close()
        assert len(executor._memo) == 0


def test_bucket_hang_stalls_memo_hit(monkeypatch):
    model = frozen_model("lstm")
    pairs = cached(scenario("many-plans-one-profile", model.config, seed=2))
    rows = count_plan_side_rows(monkeypatch)
    with BucketExecutor(model, BATCH_SIZE, memo_size=MEMO_SIZE) as executor:
        want, _ = executor.predict_log(pairs)
        rows.clear()
        restore = FaultInjector().force_bucket_hang(model, seconds=1.0)
        try:
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded):
                executor.predict_log(pairs, deadline=Deadline.after(0.05))
            assert time.monotonic() - start < 0.5
        finally:
            restore()
        got, _ = executor.predict_log(pairs)
    assert rows == []
    assert np.array_equal(got, want)


def test_concurrent_predicts_on_frozen_executor_agree():
    model = frozen_model("lstm")
    cases = [cached(scenario(kind, model.config, seed))
             for seed, kind in enumerate(SCENARIOS)]
    serial = [BucketExecutor(model, BATCH_SIZE).predict_log(pairs)[0]
              for pairs in cases]
    got: dict = {}
    errors = []

    def call(caller: int) -> None:
        try:
            for rep in range(3):
                for c, pairs in enumerate(cases):
                    deadline = Deadline.after(60.0) if caller % 2 else None
                    got[caller, rep, c], _ = executor.predict_log(
                        pairs, deadline=deadline)
        except Exception as exc:  # surfaced below
            errors.append(exc)

    with BucketExecutor(model, BATCH_SIZE, memo_size=MEMO_SIZE) as executor:
        threads = [threading.Thread(target=call, args=(c,)) for c in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    assert not errors and not any(t.is_alive() for t in threads)
    assert len(got) == 4 * 3 * len(cases)
    for (_, _, c), preds in got.items():
        assert_close(preds, serial[c])
