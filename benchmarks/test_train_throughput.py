"""Training throughput: the fused analytic backward vs autograd.

Measures epoch throughput (samples/sec) for ``Trainer.fit`` on the
paper-sized RAAL configuration, on the production path (graph-free
forward with cached activations + closed-form backward + epoch-persistent
bucketed collation) and on the legacy path: the same ``Trainer.fit``
with the autograd reference step from ``tests/oracles.py`` (per-timestep
autograd graph construction and traversal). Also records the maximum
per-parameter gradient deviation between the two paths on one training
batch, so the speedup claim and the correctness bound live in the same
artifact.

Results go to ``BENCH_training.json`` at the repo root, alongside
``BENCH_inference.json``, so future PRs have a perf trajectory to
regress against.

Expected shape: ≥ 3× samples/sec for the fused path, gradient
deviation ≤ 1e-8.

Scale overrides: ``REPRO_BENCH_TRAIN_SAMPLES`` (default 256) and
``REPRO_BENCH_TRAIN_EPOCHS`` (default 3). CI smoke runs on shared
runners can relax the speedup bar with
``REPRO_BENCH_TRAIN_MIN_SPEEDUP`` (default 3.0); the gradient bound is
scale-independent and never relaxed.
"""

from __future__ import annotations

import os
import pathlib
from contextlib import nullcontext

import numpy as np

from benchmarks.runmeta import write_bench_json
from benchmarks.conftest import publish
from repro.core import RAAL, RAALConfig, Trainer, TrainerConfig
from repro.core.trainer import TrainingSample
from repro.encoding import EncodedPlan
from repro.eval import render_table
from repro.nn.layers import Dropout
from tests.oracles import autograd_step, autograd_training

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_training.json"

N_SAMPLES = int(os.environ.get("REPRO_BENCH_TRAIN_SAMPLES", "256"))
N_EPOCHS = int(os.environ.get("REPRO_BENCH_TRAIN_EPOCHS", "3"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_TRAIN_MIN_SPEEDUP", "3.0"))
BATCH_SIZE = 32
MAX_NODES = 24

#: The paper's model size (Sec. V-B): 60-dim nodes, 48 hidden units.
MODEL_CONFIG = RAALConfig()


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
        out.append(TrainingSample(encoded, float(rng.random() * 30.0)))
    return out


def _fit_throughput(autograd: bool, samples, repeats: int = 2) -> dict[str, float]:
    """Train fresh models for N_EPOCHS each; return samples/sec stats.

    ``autograd`` trains through the reference step instead of the fused
    one (the "legacy" arm).

    ``samples_per_sec`` is the best epoch across ``repeats`` runs — the
    best-of-N idiom the inference benchmark uses, which measures the
    code path rather than scheduler noise on a shared box.
    """
    results = []
    for _ in range(repeats):
        model = RAAL(MODEL_CONFIG)
        trainer = Trainer(model, TrainerConfig(
            epochs=N_EPOCHS, batch_size=BATCH_SIZE,
            early_stopping_patience=N_EPOCHS))
        with autograd_training(model) if autograd else nullcontext():
            results.append(trainer.fit(samples))
    n_train = len(samples) - max(1, int(len(samples) * 0.1))
    total_epochs = sum(len(r.epoch_seconds) for r in results)
    total_seconds = sum(sum(r.epoch_seconds) for r in results)
    return {
        "epochs": total_epochs,
        "epoch_seconds_mean": total_seconds / total_epochs,
        "epoch_seconds_best": min(min(r.epoch_seconds) for r in results),
        "samples_per_sec": max(max(r.samples_per_sec) for r in results),
        "samples_per_sec_mean": n_train * total_epochs / total_seconds,
        "final_train_loss": results[-1].final_train_loss,
    }


def _gradient_deviation(samples) -> float:
    """Max per-parameter |fused − autograd| gradient on one train batch.

    Runs in train mode with dropout active; the fused pass replays the
    autograd pass's dropout masks by restoring each layer's rng state.
    """
    model = RAAL(MODEL_CONFIG).train()
    trainer = Trainer(model, TrainerConfig(batch_size=BATCH_SIZE))
    batch = trainer._collate_bucketed(samples[:BATCH_SIZE])[0]
    droppers = [l for l in model.dense if isinstance(l, Dropout)]
    states = [l._rng.bit_generator.state for l in droppers]
    model.zero_grad()
    autograd_step(model, batch)
    reference = {n: p.grad.copy() for n, p in model.named_parameters()}
    for layer, state in zip(droppers, states):
        layer._rng.bit_generator.state = state
    model.zero_grad()
    model.forward_backward(batch)
    return max(float(np.max(np.abs(p.grad - reference[n])))
               for n, p in model.named_parameters())


def test_train_throughput():
    samples = _random_samples(MODEL_CONFIG, N_SAMPLES, MAX_NODES)

    # Warm both paths (BLAS thread pools, allocator) before timing.
    warm = _random_samples(MODEL_CONFIG, 32, MAX_NODES, seed=1)
    _fit_throughput(False, warm)
    _fit_throughput(True, warm)

    fast = _fit_throughput(False, samples)
    legacy = _fit_throughput(True, samples)
    speedup = fast["samples_per_sec"] / legacy["samples_per_sec"]
    grad_dev = _gradient_deviation(samples)

    results = {
        "fast": fast,
        "legacy": legacy,
        "speedup": speedup,
        "max_grad_deviation": grad_dev,
        "config": {
            "samples": N_SAMPLES,
            "epochs": N_EPOCHS,
            "batch_size": BATCH_SIZE,
            "max_nodes": MAX_NODES,
            "node_dim": MODEL_CONFIG.node_dim,
            "hidden_size": MODEL_CONFIG.hidden_size,
        },
    }
    write_bench_json(BENCH_JSON, results)

    rows = [[name,
             f"{stats['samples_per_sec']:.0f}",
             f"{stats['epoch_seconds_mean'] * 1e3:.0f}",
             f"{stats['final_train_loss']:.4f}"]
            for name, stats in (("fast", fast), ("legacy", legacy))]
    rows.append(["speedup", f"{speedup:.1f}x", "", ""])
    rows.append(["max grad deviation", f"{grad_dev:.2e}", "", ""])
    publish("train_throughput", render_table(
        f"Training throughput — fused analytic backward vs autograd "
        f"({N_SAMPLES} samples, {N_EPOCHS} epochs)",
        ["path", "samples/sec", "epoch (ms)", "final loss"], rows))

    # Shape: the fused step must carry the training loop at least 3x
    # faster while remaining gradient-equivalent to autograd.
    assert speedup >= MIN_SPEEDUP, results
    assert grad_dev <= 1e-8, results
