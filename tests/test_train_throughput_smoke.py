"""Tier-1 perf smoke: training must not be slower than autograd.

A tiny-model, best-of-N timing comparison that fails fast if a change
regresses the fused analytic backward below the throughput of the
autograd training step in ``tests/oracles.py`` — without running the
full benchmark suite. Full numbers live in
``benchmarks/test_train_throughput.py``.
"""

import time
from contextlib import nullcontext

import numpy as np

from repro.core import RAAL, RAALConfig, Trainer, TrainerConfig
from repro.core.trainer import TrainingSample
from repro.encoding import EncodedPlan
from tests.oracles import autograd_training


def _random_samples(config, count, max_n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
        child = np.zeros((n, n), dtype=bool)
        for i in range(1, n):
            child[i, rng.integers(0, i)] = True
        encoded = EncodedPlan(
            node_features=rng.normal(size=(n, config.node_dim)),
            child_mask=child,
            resources=rng.random(config.resource_dim),
            extras=rng.random(config.extras_dim),
        )
        out.append(TrainingSample(encoded, float(rng.random() * 10.0)))
    return out


def _fit_seconds(autograd, samples, config, repeats=2):
    best = float("inf")
    for _ in range(repeats):
        model = RAAL(config)
        trainer = Trainer(model, TrainerConfig(
            epochs=2, batch_size=16, early_stopping_patience=2))
        with autograd_training(model) if autograd else nullcontext():
            start = time.perf_counter()
            trainer.fit(samples)
            best = min(best, time.perf_counter() - start)
    return best


def test_fast_path_at_least_autograd_training_throughput():
    config = RAALConfig(node_dim=24, hidden_size=24, embedding_dim=24)
    samples = _random_samples(config, count=64, max_n=12)

    # Warm both paths (BLAS thread pools, allocator) before timing.
    _fit_seconds(False, samples, config, repeats=1)
    _fit_seconds(True, samples, config, repeats=1)

    fast = _fit_seconds(False, samples, config)
    slow = _fit_seconds(True, samples, config)

    # The analytic backward skips Tensor allocation and backward-closure
    # wiring for both the forward and the gradient pass; it must at
    # least match autograd throughput. The 1.1 factor absorbs scheduler
    # noise without hiding real regressions.
    assert fast <= slow * 1.1, (
        f"fast training ({fast * 1e3:.1f} ms) slower than autograd "
        f"({slow * 1e3:.1f} ms) on {len(samples)} samples x 2 epochs")
