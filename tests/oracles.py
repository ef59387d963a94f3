"""Autograd reference implementations the production paths are checked against.

Production has one RAAL forward, the graph-free kernels of
``repro.nn.inference``: the length-bucketed ``BucketExecutor`` serves
with them and the training step (``RAAL.forward_backward``) adds their
closed-form backward. The reference here is the same network written
with :class:`~repro.nn.tensor.Tensor` operations, so autograd derives
its gradients independently:

* :func:`raal_forward` — the model's autograd forward, composed of
  :func:`lstm_sequence` (over :func:`lstm_cell_step`), :func:`conv1d`,
  :func:`node_attention`, :func:`resource_attention` and
  :func:`masked_mean`, each reading the parameters of the matching
  ``repro.nn`` module.

* :func:`autograd_predict_log` / :func:`autograd_predict_seconds` —
  arrival-order (unbucketed) batches through :func:`raal_forward` under
  ``no_grad``.
* :func:`pairwise_predict_log` — the graph-free forward with every
  (plan, resources) pair collated as its own row: the pairwise
  computation the per-plan kernel regroups, and the baseline the grid
  benchmarks measure it against.
* :func:`autograd_step` — one training step through :func:`raal_forward`
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
from repro.errors import ShapeError
from repro.nn import Tensor, mse_loss, no_grad

__all__ = ["raal_forward", "lstm_initial_state", "lstm_cell_step",
           "lstm_sequence", "conv1d", "node_attention",
           "resource_attention", "masked_mean", "autograd_predict_log",
           "autograd_predict_seconds", "autograd_forward", "autograd_step",
           "autograd_training", "pairwise_predict_log"]

_NEG_INF = -1e9


def lstm_initial_state(cell, batch: int) -> tuple[Tensor, Tensor]:
    """Zero (h, c) state of an :class:`~repro.nn.rnn.LSTMCell` for a batch."""
    return (Tensor(np.zeros((batch, cell.hidden_size))),
            Tensor(np.zeros((batch, cell.hidden_size))))


def lstm_cell_step(cell, x: Tensor, state: tuple[Tensor, Tensor]
                   ) -> tuple[Tensor, Tensor]:
    """One LSTM step ``(x_t, (h, c)) -> (h', c')`` (gate order i, f, g, o)."""
    h_prev, c_prev = state
    if x.shape[-1] != cell.input_size:
        raise ShapeError(f"LSTMCell expected input size {cell.input_size}, got {x.shape[-1]}")
    gates = x @ cell.w_x + h_prev @ cell.w_h + cell.bias
    hs = cell.hidden_size
    i = gates[..., 0 * hs : 1 * hs].sigmoid()
    f = gates[..., 1 * hs : 2 * hs].sigmoid()
    g = gates[..., 2 * hs : 3 * hs].tanh()
    o = gates[..., 3 * hs : 4 * hs].sigmoid()
    c = f * c_prev + i * g
    h = o * c.tanh()
    return h, c


def lstm_sequence(lstm, x: Tensor, mask: np.ndarray | None = None,
                  state: tuple[Tensor, Tensor] | None = None,
                  ) -> tuple[Tensor, tuple[Tensor, Tensor]]:
    """All hidden states ``(batch, seq, hidden)`` of an
    :class:`~repro.nn.rnn.LSTM` plus the final ``(h, c)``; the state
    freezes on the padded (False) steps of ``mask``."""
    if x.ndim != 3:
        raise ShapeError(f"LSTM expects (batch, seq, input), got shape {x.shape}")
    batch, seq, _ = x.shape
    h, c = lstm_initial_state(lstm.cell, batch) if state is None else state
    outputs: list[Tensor] = []
    for t in range(seq):
        h_new, c_new = lstm_cell_step(lstm.cell, x[:, t, :], (h, c))
        if mask is not None:
            m = Tensor(mask[:, t : t + 1].astype(np.float64))
            h = h_new * m + h * (1.0 - m)
            c = c_new * m + c * (1.0 - m)
        else:
            h, c = h_new, c_new
        outputs.append(h)
    return Tensor.stack(outputs, axis=1), (h, c)


def conv1d(conv, x: Tensor) -> Tensor:
    """A :class:`~repro.nn.layers.Conv1d` over ``(batch, seq, in)``:
    ``(batch, seq - kernel + 1, out)``, im2col, no padding, stride 1."""
    batch, seq, channels = x.shape
    if channels != conv.in_channels:
        raise ShapeError(f"expected {conv.in_channels} input channels, got {channels}")
    k = conv.kernel_size
    if seq < k:
        raise ShapeError(f"sequence length {seq} shorter than kernel {k}")
    windows = [x[:, t : t + k, :].reshape(batch, k * channels)
               for t in range(seq - k + 1)]
    cols = Tensor.stack(windows, axis=1)  # (batch, seq_out, k*in)
    return cols @ conv.weight + conv.bias


def masked_mean(x: Tensor, mask: np.ndarray) -> Tensor:
    """Mean of ``x`` (batch, n, dim) over axis 1 restricted to ``mask``."""
    weights = mask.astype(np.float64)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (x * Tensor(weights[:, :, None])).sum(axis=1) * Tensor(1.0 / denom)


def node_attention(attn, hidden: Tensor, child_mask: np.ndarray,
                   node_mask: np.ndarray) -> Tensor:
    """A :class:`~repro.nn.attention.NodeAwareAttention`'s plan vector
    ``(batch, hidden)``: each node attends over its children (a leaf
    keeps its own state), mean-pooled over real nodes."""
    batch, n, _ = hidden.shape
    if child_mask.shape != (batch, n, n):
        raise ShapeError(f"child_mask shape {child_mask.shape} != {(batch, n, n)}")
    queries = hidden @ attn.w_query
    keys = hidden @ attn.w_key
    scores = queries @ keys.transpose(0, 2, 1)
    scores = scores * (1.0 / np.sqrt(attn.latent_dim))
    bias = np.where(child_mask, 0.0, _NEG_INF)
    weights = (scores + Tensor(bias)).softmax(axis=-1)
    # Rows with no children produce a uniform distribution over the
    # masked row; zero them out and substitute the node itself.
    has_children = child_mask.any(axis=-1, keepdims=True).astype(np.float64)
    weights = weights * Tensor(has_children)
    context = weights @ hidden + hidden * Tensor(1.0 - has_children)
    return masked_mean(context, node_mask)


def resource_attention(attn, hidden: Tensor, resources: Tensor,
                       node_mask: np.ndarray) -> Tensor:
    """A :class:`~repro.nn.attention.ResourceAwareAttention`'s summary
    ``(batch, hidden)`` of the nodes, weighted by a softmax over nodes
    of their score against ``resources`` ``(batch, resource_dim)``."""
    if resources.shape[-1] != attn.resource_dim:
        raise ShapeError(
            f"expected resource dim {attn.resource_dim}, got {resources.shape[-1]}")
    query = resources @ attn.w_resource                 # (batch, K)
    keys = hidden @ attn.w_key                          # (batch, n, K)
    scores = (keys @ query.expand_dims(2)).squeeze(2)   # (batch, n)
    scores = scores * (1.0 / np.sqrt(attn.latent_dim))
    bias = np.where(node_mask, 0.0, _NEG_INF)
    weights = (scores + Tensor(bias)).softmax(axis=-1)  # (batch, n)
    return (hidden * weights.expand_dims(2)).sum(axis=1)


def raal_forward(model, batch) -> Tensor:
    """A RAAL-family model's (log-)costs ``(B,)`` through autograd."""
    if batch.node_features.shape[2] != model.config.node_dim:
        raise ShapeError(
            f"batch node_dim {batch.node_features.shape[2]} != "
            f"model node_dim {model.config.node_dim}")
    emb = model.embedding(Tensor(batch.node_features)).tanh()
    if model.plan_feature is not None:
        hidden, _ = lstm_sequence(model.plan_feature, emb, mask=batch.node_mask)
    else:
        # RAAC: left-pad so the output length matches the input.
        pad_len = model.config.cnn_kernel - 1
        if pad_len:
            pad = Tensor(np.zeros((emb.shape[0], pad_len, emb.shape[2])))
            emb = Tensor.concat([pad, emb], axis=1)
        hidden = conv1d(model.cnn, emb).relu()

    if model.node_attention is not None:
        plan_vec = node_attention(model.node_attention, hidden,
                                  batch.child_mask, batch.node_mask)
    else:
        plan_vec = masked_mean(hidden, batch.node_mask)
    parts = [plan_vec]
    if model.resource_attention is not None:
        resources = Tensor(batch.resources)
        parts.append(resource_attention(model.resource_attention, hidden,
                                        resources, batch.node_mask))
        parts.append(resources)
    parts.append(Tensor(batch.extras))
    return model.dense(Tensor.concat(parts, axis=1)).squeeze(-1)


def autograd_forward(model, batch, weights=None) -> np.ndarray:
    """:func:`raal_forward` under ``no_grad``, as a ``forward_inference`` twin.

    ``weights`` is accepted for signature compatibility; the autograd
    forward reads the live parameters. It recomputes the plan side, so
    the batch must carry its ``node_features`` and ``child_mask``.
    """
    with no_grad():
        return raal_forward(model, batch).numpy()


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
    pred = raal_forward(model, batch)
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
