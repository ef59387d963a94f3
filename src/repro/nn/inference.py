"""Graph-free inference kernels for the RAAL model family.

The autograd :class:`~repro.nn.tensor.Tensor` pays for every operation
twice at inference time: it allocates a Python object per intermediate
and wires up a backward closure that is never called. The functions
here re-implement the forward pass of each RAAL building block on raw
numpy arrays — no graph, no Tensor wrappers — using the *same*
formulas and operation order as the autograd layers, so results agree
to float-rounding (≤ 1e-8) with the training path.

The LSTM forward is additionally *fused*: the input projections of all
timesteps are computed in a single ``(B·T, D) @ (D, 4H)`` GEMM up
front, so the per-timestep loop only carries the (irreducibly
sequential) recurrent ``h @ W_h`` product.

Every kernel is *dtype-generic*: arithmetic runs in the dtype of its
inputs, so the same code serves the float64 and float32 tiers (see
:mod:`repro.nn.precision`). Scratch allocations, mask floats, and the
masked-softmax logit floor all follow the execution dtype.

The forward is split into a *plan-side* stage (embedding → LSTM/CNN →
node-aware attention; depends only on the plan) and a *resource-side*
stage (resource-aware attention → dense head; depends on the resource
profile too). A batch's resources are either one vector per plan
``(B, R)`` — the pairwise shape training uses — or a padded *profile
block* ``(B, P, R)``: each plan scored under up to ``P`` profiles after
one plan-side pass. The resource side treats the pairwise shape as a
block with ``P = 1``, so both run the same arithmetic; the block form
is how the inference engine serves every guarded batch (see
:class:`repro.core.execution.BucketExecutor`).

Entry point: :func:`raal_forward_inference`, also exposed as
``RAAL.forward_inference``.
"""

from __future__ import annotations

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.precision import (
    SOFTMAX_FLOORS,
    InferenceWeights,
    inference_weights,
)

__all__ = [
    "fused_lstm_forward",
    "node_attention_forward",
    "resource_attention_forward",
    "masked_mean_forward",
    "dense_forward",
    "dense_forward_ops",
    "conv1d_forward",
    "plan_side_forward",
    "resource_side_forward",
    "raal_forward_inference",
]

_NEG_INF = -1e9


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same clipping as Tensor.sigmoid so the two paths agree bitwise on
    # saturated gates.
    x = np.clip(x, -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    # Mask bias pushes entries to ~-1e9; exp() of those underflows
    # through libm's slow denormal path, and anything closer to the
    # underflow edge turns into denormals after the division below,
    # which poisons every downstream multiply. The floor is dtype-aware
    # (float32 underflows at exp(-87.3), float64 at exp(-745)): each
    # tier's floor keeps exp fast and every derived value in the normal
    # range while perturbing masked weights by < 1e-26.
    floor = SOFTMAX_FLOORS.get(shifted.dtype, -200.0)
    np.clip(shifted, floor, None, out=shifted)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _mask_bias(mask: np.ndarray, dtype) -> np.ndarray:
    """0 where ``mask``, a large negative logit elsewhere, in ``dtype``."""
    return np.where(mask, 0.0, _NEG_INF).astype(dtype, copy=False)


def fused_lstm_forward(
    x: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    mask: np.ndarray | None = None,
) -> np.ndarray:
    """All hidden states of a unidirectional LSTM, graph-free.

    Parameters
    ----------
    x:
        Inputs ``(batch, seq, input_size)``.
    w_x / w_h / bias:
        Fused gate parameters, shaped ``(input, 4H)`` / ``(H, 4H)`` /
        ``(4H,)`` with gate order i, f, g, o (as in
        :class:`repro.nn.rnn.LSTMCell`).
    mask:
        Optional boolean ``(batch, seq)``; the state freezes on padded
        (False) steps, matching :class:`repro.nn.rnn.LSTM`.

    Returns
    -------
    np.ndarray
        Hidden states ``(batch, seq, H)``.
    """
    # Single implementation with the training fast path: the cached
    # time-major kernel is faster than a per-gate loop even counting the
    # activation slabs it records (lazy import: training imports from
    # this module). Arithmetic runs in the dtype of ``x``/``w_x``.
    from repro.nn.training import fused_lstm_forward_cached

    outputs, _ = fused_lstm_forward_cached(x, w_x, w_h, bias, mask=mask)
    return outputs


def node_attention_forward(
    hidden: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    child_mask: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> np.ndarray:
    """Numpy twin of :class:`repro.nn.attention.NodeAwareAttention`."""
    batch, n, _ = hidden.shape
    if child_mask.shape != (batch, n, n):
        raise ShapeError(f"child_mask shape {child_mask.shape} != {(batch, n, n)}")
    queries = hidden @ w_query
    keys = hidden @ w_key
    scores = queries @ keys.transpose(0, 2, 1)
    # float(sqrt): a Python-float scale keeps float32 arrays float32
    # under NEP 50 (a numpy float64 scalar would silently upcast).
    scores = scores * (1.0 / float(np.sqrt(latent_dim)))
    bias = _mask_bias(child_mask, scores.dtype)
    attn = _softmax(scores + bias, axis=-1)
    has_children = child_mask.any(axis=-1, keepdims=True).astype(hidden.dtype)
    attn = attn * has_children
    context = attn @ hidden + hidden * (1.0 - has_children)
    return masked_mean_forward(context, node_mask)


def resource_attention_forward(
    hidden: np.ndarray,
    resources: np.ndarray,
    w_resource: np.ndarray,
    w_key: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> np.ndarray:
    """Numpy twin of :class:`repro.nn.attention.ResourceAwareAttention`.

    Scores a profile block: ``hidden`` ``(B, N, H)`` and ``resources``
    ``(B, P, R)`` give the resource-attended context ``(B, P, H)`` of
    each plan under each of its ``P`` profiles. The keys are computed
    once per plan, not once per profile.
    """
    if resources.shape[-1] != w_resource.shape[0]:
        raise ShapeError(
            f"expected resource dim {w_resource.shape[0]}, got {resources.shape[-1]}")
    query = resources @ w_resource                      # (B, P, K)
    keys = hidden @ w_key                               # (B, N, K)
    scores = keys @ query.transpose(0, 2, 1)            # (B, N, P)
    # float(sqrt): a Python-float scale keeps float32 arrays float32
    # under NEP 50 (a numpy float64 scalar would silently upcast).
    scores *= 1.0 / float(np.sqrt(latent_dim))
    scores += _mask_bias(node_mask, scores.dtype)[:, :, None]
    attn = _softmax(scores, axis=1)                     # over nodes
    return attn.transpose(0, 2, 1) @ hidden             # (B, P, H)


def masked_mean_forward(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Numpy twin of :func:`repro.nn.functional.masked_mean`."""
    weights = mask.astype(x.dtype)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (x * weights[:, :, None]).sum(axis=1) * (1.0 / denom)


def dense_forward(dense: Sequential, x: np.ndarray) -> np.ndarray:
    """Eval-mode forward through a Linear/ReLU/Dropout stack, graph-free."""
    for layer in dense:
        if isinstance(layer, Linear):
            x = x @ layer.weight.data
            if layer.bias is not None:
                x = x + layer.bias.data
        elif isinstance(layer, ReLU):
            x = x * (x > 0)
        elif isinstance(layer, Dropout):
            pass  # identity at inference
        else:
            raise ShapeError(
                f"no graph-free kernel for dense layer {type(layer).__name__}")
    return x


def dense_forward_ops(ops: list[tuple], x: np.ndarray) -> np.ndarray:
    """Forward through a precompiled dense op list (see InferenceWeights).

    Same arithmetic and operation order as :func:`dense_forward`, but
    over ``("linear", w, b)`` / ``("relu",)`` tuples instead of Module
    objects — no isinstance dispatch on the hot path, and the weights
    are already in the execution dtype.
    """
    for op in ops:
        if op[0] == "linear":
            x = x @ op[1]
            if op[2] is not None:
                x = x + op[2]
        else:  # relu
            x = x * (x > 0)
    return x


def conv1d_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                   kernel_size: int) -> np.ndarray:
    """Numpy twin of :class:`repro.nn.layers.Conv1d` (im2col, stride 1)."""
    batch, seq, channels = x.shape
    if seq < kernel_size:
        raise ShapeError(f"sequence length {seq} shorter than kernel {kernel_size}")
    seq_out = seq - kernel_size + 1
    cols = np.empty((batch, seq_out, kernel_size * channels), dtype=x.dtype)
    for t in range(seq_out):
        cols[:, t, :] = x[:, t : t + kernel_size, :].reshape(batch, kernel_size * channels)
    return cols @ weight + bias


# ---------------------------------------------------------------------------
# Staged forward
# ---------------------------------------------------------------------------

def plan_side_forward(
    weights: InferenceWeights,
    node_features: np.ndarray,
    child_mask: np.ndarray,
    node_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Everything that depends only on the plan: ``(hidden, plan_vec)``.

    ``node_features`` must already be in the execution dtype. Returns
    the feature-layer hidden states ``(B, N, H)`` and the node-attention
    (or masked-mean) pooled plan vector ``(B, H)``.
    """
    emb = node_features @ weights.embedding_w
    if weights.embedding_b is not None:
        emb = emb + weights.embedding_b
    emb = np.tanh(emb)

    if weights.lstm is not None:
        w_x, w_h, bias = weights.lstm
        hidden = fused_lstm_forward(emb, w_x, w_h, bias, mask=node_mask)
    else:
        cnn_w, cnn_b, kernel = weights.cnn
        pad_len = kernel - 1
        if pad_len:
            batch_size, _, dim = emb.shape
            emb = np.concatenate(
                [np.zeros((batch_size, pad_len, dim), dtype=emb.dtype), emb],
                axis=1)
        out = conv1d_forward(emb, cnn_w, cnn_b, kernel)
        hidden = out * (out > 0)

    if weights.node_attention is not None:
        w_query, w_key = weights.node_attention
        plan_vec = node_attention_forward(
            hidden, w_query, w_key, child_mask, node_mask, weights.latent_dim)
    else:
        plan_vec = masked_mean_forward(hidden, node_mask)
    return hidden, plan_vec


def resource_side_forward(
    weights: InferenceWeights,
    hidden: np.ndarray,
    plan_vec: np.ndarray,
    resources: np.ndarray,
    extras: np.ndarray,
    node_mask: np.ndarray,
) -> np.ndarray:
    """Resource attention + dense head over a profile block: ``(B, P)``.

    ``resources`` is the ``(B, P, R)`` block in the execution dtype.
    The resource-blind ablation never reads it: its one answer per plan
    is broadcast to every profile.
    """
    batch, n_profiles, resource_dim = resources.shape
    if weights.resource_attention is None:
        joined = np.concatenate([plan_vec, extras], axis=1)
        row = dense_forward_ops(weights.dense, joined)              # (B, 1)
        return np.repeat(row, n_profiles, axis=1)
    w_resource, w_key = weights.resource_attention
    res_vec = resource_attention_forward(
        hidden, resources, w_resource, w_key, node_mask, weights.latent_dim)
    hs = plan_vec.shape[1]
    off = 2 * hs + resource_dim
    joined = np.empty((batch, n_profiles, off + extras.shape[1]),
                      dtype=weights.dtype)
    joined[:, :, :hs] = plan_vec[:, None, :]
    joined[:, :, hs : 2 * hs] = res_vec
    joined[:, :, 2 * hs : off] = resources
    joined[:, :, off:] = extras[:, None, :]
    out = dense_forward_ops(weights.dense,
                            joined.reshape(batch * n_profiles, -1))
    return out.reshape(batch, n_profiles)


def raal_forward_inference(model, batch,
                           weights: InferenceWeights | None = None) -> np.ndarray:
    """Graph-free eval-mode forward of a RAAL-family model.

    Numerically equivalent (≤ 1e-8) to ``model(batch)`` in eval mode,
    but builds no autograd graph and fuses the LSTM input projections.

    Parameters
    ----------
    model:
        A :class:`repro.core.raal.RAAL` instance (any ablation variant).
    batch:
        A :class:`repro.core.raal.RAALBatch`. Its ``resources`` are
        either ``(B, R)`` — one profile per plan — or a ``(B, P, R)``
        profile block, each plan under ``P`` profiles.
    weights:
        Optional precision-tier weight bundle
        (:func:`repro.nn.precision.inference_weights`); defaults to a
        zero-copy float64 view of the model's parameters.

    Returns
    -------
    np.ndarray
        Predicted (log-)costs: ``(B,)`` for pairwise resources,
        ``(B, P)`` for a profile block.
    """
    if weights is None:
        weights = inference_weights(model, "f64")
    node_features = np.asarray(batch.node_features, dtype=weights.dtype)
    if node_features.shape[2] != weights.node_dim:
        raise ShapeError(
            f"batch node_dim {node_features.shape[2]} != "
            f"model node_dim {weights.node_dim}")
    hidden, plan_vec = plan_side_forward(
        weights, node_features, batch.child_mask, batch.node_mask)
    resources = np.asarray(batch.resources, dtype=weights.dtype)
    pairwise = resources.ndim == 2
    if pairwise:
        resources = resources[:, None, :]
    extras = np.asarray(batch.extras, dtype=weights.dtype)
    out = resource_side_forward(
        weights, hidden, plan_vec, resources, extras, batch.node_mask)
    return out[:, 0] if pairwise else out
