"""Tier-1 perf smoke: prediction must not be slower than autograd.

A tiny-model, best-of-N timing comparison that fails fast if a change
regresses the graph-free forward below the throughput of the autograd
reference in ``tests/oracles.py`` — without running the full benchmark
suite. Full numbers live in ``benchmarks/test_inference_throughput.py``.
"""

import time

import numpy as np

from repro.core import RAAL, RAALConfig, Trainer, TrainerConfig
from repro.encoding import EncodedPlan
from tests.oracles import autograd_predict_seconds


def _random_encoded(config, count, max_n, seed=0):
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(3, max_n + 1))
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


def _best_of(fn, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_fast_path_at_least_autograd_throughput():
    config = RAALConfig(node_dim=24, hidden_size=24, embedding_dim=24)
    trainer = Trainer(RAAL(config).eval(), TrainerConfig(batch_size=32))
    encoded = _random_encoded(config, count=96, max_n=14)

    # Warm both paths (BLAS thread pools, allocator) before timing.
    trainer.predict_seconds(encoded)
    autograd_predict_seconds(trainer, encoded)

    fast = _best_of(lambda: trainer.predict_seconds(encoded))
    slow = _best_of(lambda: autograd_predict_seconds(trainer, encoded))

    # The graph-free forward skips Tensor allocation and backward-closure
    # wiring entirely; it must at least match autograd throughput. The
    # 1.1 factor absorbs scheduler noise without hiding real regressions.
    assert fast <= slow * 1.1, (
        f"fast path ({fast * 1e3:.2f} ms) slower than autograd "
        f"({slow * 1e3:.2f} ms) on {len(encoded)} plans")
