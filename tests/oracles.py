"""Autograd reference implementations the production paths are checked against.

Production has one inference path (the length-bucketed, graph-free
``BucketExecutor``) and one training step (``RAAL.forward_backward``,
the fused analytic backward). Both are re-derivations of the model's
Tensor/autograd ``RAAL.forward``; the functions here run that autograd
forward directly, so tests and benchmarks can compare against it:

* :func:`autograd_predict_log` / :func:`autograd_predict_seconds` —
  arrival-order (unbucketed) batches through ``RAAL.forward`` under
  ``no_grad``.
* :func:`pairwise_predict_log` — the graph-free forward with every
  (plan, resources) pair collated as its own row: the pairwise
  computation the per-plan kernel regroups, and the baseline the grid
  benchmarks measure it against.
* :func:`autograd_step` — one training step through ``RAAL.forward``
  and ``mse_loss(...).backward()``, with the same signature as
  ``RAAL.forward_backward``.
* :func:`autograd_training` — a context manager that routes a model's
  ``forward_backward`` and ``forward_inference`` through autograd, so an
  unmodified ``Trainer.fit`` trains (and validates) on the reference
  path.

Importable as ``tests.oracles`` with the repository root on the path
(``PYTHONPATH=src:.``).
"""

from __future__ import annotations

from contextlib import contextmanager

import numpy as np

from repro.core.execution import collate_inference
from repro.nn import Tensor, mse_loss, no_grad

__all__ = ["autograd_predict_log", "autograd_predict_seconds",
           "autograd_forward", "autograd_step", "autograd_training",
           "pairwise_predict_log"]


def autograd_forward(model, batch, weights=None) -> np.ndarray:
    """``RAAL.forward`` under ``no_grad``, as a ``forward_inference`` twin.

    ``weights`` is accepted for signature compatibility; the autograd
    forward reads the live parameters. It recomputes the plan side, so
    the batch must carry its ``node_features`` and ``child_mask``.
    """
    with no_grad():
        return model(batch).numpy()


def autograd_predict_log(model, encoded: list, batch_size: int) -> np.ndarray:
    """Log-space predictions through autograd, batched in arrival order."""
    model.eval()
    preds = np.empty(len(encoded))
    for lo in range(0, len(encoded), batch_size):
        batch = collate_inference(encoded[lo : lo + batch_size])
        preds[lo : lo + batch_size] = autograd_forward(model, batch)
    return preds


def autograd_predict_seconds(trainer, encoded: list) -> np.ndarray:
    """Seconds-space twin of ``Trainer.predict_seconds`` via autograd."""
    log_preds = autograd_predict_log(trainer.model, encoded,
                                     trainer.config.batch_size)
    return np.expm1(np.clip(log_preds, 0.0, trainer.config.log_clamp_max))


def pairwise_predict_log(model, encoded: list, batch_size: int) -> np.ndarray:
    """Log-space predictions with one row per pair, length-bucketed.

    Pairs are stable-sorted by node count and collated ``batch_size``
    rows at a time through ``model.forward_inference`` — the plan side
    of the network runs once per *pair*, however many pairs share a
    plan.
    """
    model.eval()
    order = np.argsort([e.num_nodes for e in encoded], kind="stable")
    preds = np.empty(len(encoded))
    for lo in range(0, len(order), batch_size):
        idx = order[lo : lo + batch_size]
        batch = collate_inference([encoded[i] for i in idx])
        preds[idx] = model.forward_inference(batch)
    return preds


def autograd_step(model, batch) -> tuple[float, np.ndarray]:
    """One training step through the autograd graph.

    Same contract as ``RAAL.forward_backward``: MSE against
    ``batch.targets``, gradients accumulated into every parameter's
    ``.grad``, returns ``(loss, predictions)``.
    """
    pred = model(batch)
    loss = mse_loss(pred, Tensor(batch.targets))
    loss.backward()
    return loss.item(), pred.numpy()


@contextmanager
def autograd_training(model):
    """Route ``model``'s fused training and inference kernels through autograd.

    Inside the block, ``Trainer.fit`` computes gradients with
    :func:`autograd_step` and validates with :func:`autograd_forward`;
    the batches, batch order and dropout streams are the trainer's own,
    so the loss trajectory is directly comparable with a fused run.
    """
    model.forward_backward = lambda batch: autograd_step(model, batch)
    model.forward_inference = (
        lambda batch, weights=None, plan_side=None:
        autograd_forward(model, batch, weights))
    try:
        yield model
    finally:
        model.__dict__.pop("forward_backward", None)
        model.__dict__.pop("forward_inference", None)
