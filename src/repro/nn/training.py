"""The fused training step: closed-form backward for the RAAL family.

The forward is :mod:`repro.nn.inference`'s — the kernels serving runs —
whose blocks also return the activations their gradients read. This
module holds only the backward: the gradient of each block in closed
form over the same contiguous numpy buffers, matching the autograd
gradients to ≤ 1e-8 for every parameter.

Entry point: :func:`raal_forward_backward`, also exposed as
``RAAL.forward_backward``. One call runs the forward, computes the MSE
loss against ``batch.targets``, and accumulates closed-form gradients
into every parameter's ``.grad`` — what the autograd reference step in
``tests/oracles.py`` produces, without building a graph.

A training batch carries one resource vector per plan; the resource
side scores it as a profile block with ``P = 1``. Dropout draws its
masks from the same module-owned generators as the autograd layers, so
the fused step and the autograd reference step consume identical
random streams and ``Trainer.fit`` walks the same loss trajectory with
either.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.errors import TrainingError
from repro.nn.inference import (
    CNNCache,
    LSTMCache,
    NodeAttentionCache,
    ResourceAttentionCache,
    ResourceSideCache,
    dense_ops,
    embedding_forward,
    inference_weights,
    plan_feature_forward,
    plan_pool_forward,
    resource_side_forward,
)
from repro.nn.layers import Linear, Sequential
from repro.nn.tensor import Tensor

__all__ = [
    "fused_lstm_backward",
    "cnn_backward",
    "node_attention_backward",
    "resource_attention_backward",
    "masked_mean_backward",
    "dense_backward",
    "raal_forward_backward",
]


def _accumulate(param: Tensor, grad: np.ndarray) -> None:
    """Add ``grad`` into ``param.grad`` (autograd accumulation semantics).

    Every gradient this module produces is a freshly allocated array, so
    the first accumulation can take ownership of it directly instead of
    zero-filling a buffer and adding.
    """
    if param.grad is None:
        param.grad = grad if grad.flags.owndata else grad.copy()
    else:
        param.grad += grad


# ---------------------------------------------------------------------------
# Plan-feature layers
# ---------------------------------------------------------------------------

def fused_lstm_backward(
    d_out: np.ndarray, cache: LSTMCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Closed-form BPTT through the fused LSTM.

    ``d_out`` is the loss gradient w.r.t. every hidden output
    ``(B, T, H)``. Returns ``(d_x, d_w_x, d_w_h, d_bias)``. Timesteps
    frozen by the mask contribute no gate gradients (the forward's
    ``h*m + h_prev*(1-m)`` blend routes their gradient straight to the
    carried state), matching the autograd path exactly.
    """
    x_t = cache.x_t
    seq, batch, input_size = x_t.shape
    hs = cache.w_h.shape[0]
    acts = cache.acts
    i = acts[:, :, 0 * hs : 1 * hs]
    f = acts[:, :, 1 * hs : 2 * hs]
    g = acts[:, :, 2 * hs : 3 * hs]
    o = acts[:, :, 3 * hs : 4 * hs]
    # Everything that does not depend on the recurrent (dh, dc) chain
    # is folded into per-gate coefficient blocks of one (T, B, 4H) slab
    # up front, vectorized over all timesteps; the reverse loop is then
    # one multiply per gate block plus the two recurrence GEMV/adds.
    #   d_pre_i = d_c_new * g      * i(1-i)   → coef_i = g * i(1-i)
    #   d_pre_f = d_c_new * c_prev * f(1-f)   → coef_f = c_prev * f(1-f)
    #   d_pre_g = d_c_new * i      * (1-g²)   → coef_g = i * (1-g²)
    #   d_pre_o = d_h_new * tanh_c * o(1-o)   → coef_o = tanh_c * o(1-o)
    #   d_c_new += d_h_new * o * (1-tanh_c²)  → coef_c = o * (1-tanh_c²)
    # The sigmoid-derivative factor a(1-a) is shared by the i, f, o
    # blocks, so it is computed in two contiguous full-slab passes and
    # only the tanh block is patched afterwards.
    coef = 1.0 - acts
    coef *= acts
    coef_i = coef[:, :, 0 * hs : 1 * hs]
    coef_f = coef[:, :, 1 * hs : 2 * hs]
    coef_g = coef[:, :, 2 * hs : 3 * hs]
    coef_o = coef[:, :, 3 * hs : 4 * hs]
    coef_i *= g
    # c entering step 0 is zero, so that slice of coef_f vanishes.
    coef_f[0] = 0.0
    coef_f[1:] *= cache.c_states[:-1]
    np.multiply(g, g, out=coef_g)
    np.subtract(1.0, coef_g, out=coef_g)
    coef_g *= i
    coef_o *= cache.tanh_c
    coef_c = np.multiply(cache.tanh_c, cache.tanh_c)
    np.subtract(1.0, coef_c, out=coef_c)
    coef_c *= o
    d_xproj = np.empty((seq, batch, 4 * hs))
    d_out_t = np.ascontiguousarray(d_out.transpose(1, 0, 2))
    dh = np.zeros((batch, hs))
    dc = np.zeros((batch, hs))
    mf, col_real = cache.mf, cache.col_real
    w_hT = np.ascontiguousarray(cache.w_h.T)
    # Rotating scratch buffers: the loop body allocates nothing.
    b_ht, b_hn, b_hc, b_cn, b_cc, b_tmp = (
        np.empty((batch, hs)) for _ in range(6))
    b_dh = np.empty((batch, hs))
    b_dc = np.empty((batch, hs))
    for t in range(seq - 1, -1, -1):
        dh_total = np.add(d_out_t[t], dh, out=b_ht)
        dg = d_xproj[t]
        if mf is None or col_real[t]:
            # All rows real at this step: no freeze split needed.
            d_h_new = dh_total
            d_c_new = np.multiply(dh_total, coef_c[t], out=b_cn)
            d_c_new += dc
            frozen = False
        else:
            # The mask is binary, so the frozen-step split
            # d*(1-m) equals d - d*m exactly — one subtract instead
            # of a second multiply.
            m = mf[t]
            d_h_new = np.multiply(dh_total, m, out=b_hn)
            dh_carry = np.subtract(dh_total, d_h_new, out=b_hc)
            d_c_new = np.multiply(dc, m, out=b_cn)
            dc_carry = np.subtract(dc, d_c_new, out=b_cc)
            np.multiply(d_h_new, coef_c[t], out=b_tmp)
            d_c_new += b_tmp
            frozen = True
        np.multiply(d_c_new, coef_i[t], out=dg[:, 0 * hs : 1 * hs])
        np.multiply(d_c_new, coef_f[t], out=dg[:, 1 * hs : 2 * hs])
        np.multiply(d_c_new, coef_g[t], out=dg[:, 2 * hs : 3 * hs])
        np.multiply(d_h_new, coef_o[t], out=dg[:, 3 * hs : 4 * hs])
        dc = np.multiply(d_c_new, f[t], out=b_dc)
        dh = np.matmul(dg, w_hT, out=b_dh)
        if frozen:
            dc += dc_carry
            dh += dh_carry
    d_bias = d_xproj.sum(axis=(0, 1))
    flat = d_xproj.reshape(seq * batch, 4 * hs)
    # Recurrent-weight gradient as one batched GEMM over all timesteps
    # (h entering step t is the post-mask output of step t-1, and step 0
    # sees h = 0, so its rows drop out of the product) instead of T
    # rank-B updates inside the loop.
    d_wh = cache.outputs[:-1].reshape((seq - 1) * batch, hs).T \
        @ flat[batch:] if seq > 1 else np.zeros((hs, 4 * hs))
    d_wx = x_t.reshape(seq * batch, input_size).T @ flat
    d_x = (flat @ cache.w_x.T).reshape(seq, batch, input_size)
    return d_x.transpose(1, 0, 2), d_wx, d_wh, d_bias


def cnn_backward(
    d_hidden: np.ndarray, cache: CNNCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of the padded Conv1d + ReLU: ``(d_x, d_weight, d_bias)``."""
    cols, k = cache.cols, cache.kernel
    b, seq, kdim = cols.shape
    dim = kdim // k
    d_pre = d_hidden * cache.relu_mask
    d_bias = d_pre.sum(axis=(0, 1))
    d_weight = cols.reshape(b * seq, kdim).T @ d_pre.reshape(b * seq, -1)
    d_cols = d_pre @ cache.weight.T
    d_padded = np.zeros((b, seq + k - 1, dim))
    for t in range(seq):
        d_padded[:, t : t + k, :] += d_cols[:, t].reshape(b, k, dim)
    return d_padded[:, k - 1 :], d_weight, d_bias


# ---------------------------------------------------------------------------
# Attention and pooling
# ---------------------------------------------------------------------------

def masked_mean_backward(d_pooled: np.ndarray, node_mask: np.ndarray) -> np.ndarray:
    """Gradient of :func:`~repro.nn.inference.masked_mean_forward`."""
    weights = node_mask.astype(np.float64)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return d_pooled[:, None, :] * (weights / denom)[:, :, None]


def node_attention_backward(
    d_pooled: np.ndarray, cache: NodeAttentionCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of node-aware attention: ``(d_hidden, d_w_query, d_w_key)``.

    Childless rows (leaves and padded nodes) carried a zeroed attention
    row in the forward, so their softmax receives no gradient and the
    self-term routes their gradient directly to ``hidden``.
    """
    d_context = masked_mean_backward(d_pooled, cache.node_mask)
    # context = attn @ hidden + hidden * (1 - has_children)
    d_attn = d_context @ cache.hidden.transpose(0, 2, 1)
    d_hidden = cache.attn.transpose(0, 2, 1) @ d_context
    d_hidden += d_context * (1.0 - cache.has_children)
    # attn = softmax(scores + bias) * has_children
    d_attn0 = d_attn * cache.has_children
    dot = (d_attn0 * cache.attn0).sum(axis=-1, keepdims=True)
    d_scores = cache.attn0 * (d_attn0 - dot) * cache.scale
    # scores = queries @ keys^T
    d_queries = d_scores @ cache.keys
    d_keys = np.ascontiguousarray(d_scores.transpose(0, 2, 1)) @ cache.queries
    k = d_queries.shape[-1]
    dq_flat = d_queries.reshape(-1, k)
    dk_flat = d_keys.reshape(-1, k)
    hidden_flat = cache.hidden.reshape(-1, cache.hidden.shape[-1])
    d_wq = hidden_flat.T @ dq_flat
    d_wk = hidden_flat.T @ dk_flat
    # One flat GEMM per projection instead of a B-deep batched matmul.
    dh_proj = dq_flat @ cache.w_query.T
    dh_proj += dk_flat @ cache.w_key.T
    d_hidden += dh_proj.reshape(d_hidden.shape)
    return d_hidden, d_wq, d_wk


def resource_attention_backward(
    d_out: np.ndarray, cache: ResourceAttentionCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of resource attention over a profile block:
    ``(d_hidden, d_w_resource, d_w_key)`` for ``d_out`` ``(B, P, H)``."""
    hidden = cache.hidden
    # out = attn^T @ hidden
    d_attn = hidden @ d_out.transpose(0, 2, 1)                  # (B, N, P)
    d_hidden = cache.attn @ d_out                               # (B, N, H)
    # attn = softmax over nodes of (scores + node bias)
    dot = (d_attn * cache.attn).sum(axis=1, keepdims=True)
    d_scores = cache.attn * (d_attn - dot) * cache.scale
    # scores = keys @ query^T
    d_keys = d_scores @ cache.query                             # (B, N, K)
    d_query = d_scores.transpose(0, 2, 1) @ cache.keys          # (B, P, K)
    k = d_keys.shape[-1]
    d_wr = (cache.resources.reshape(-1, cache.resources.shape[-1]).T
            @ d_query.reshape(-1, k))
    dk_flat = d_keys.reshape(-1, k)
    d_wk = hidden.reshape(-1, hidden.shape[-1]).T @ dk_flat
    # One flat GEMM instead of a B-deep batched matmul.
    d_hidden += (dk_flat @ cache.w_key.T).reshape(d_hidden.shape)
    return d_hidden, d_wr, d_wk


# ---------------------------------------------------------------------------
# Dense head
# ---------------------------------------------------------------------------

def dense_backward(d_out: np.ndarray, ops: list[tuple],
                   saved: list[np.ndarray], dense: Sequential) -> np.ndarray:
    """Backward through :func:`~repro.nn.inference.dense_forward`.

    Accumulates each op's weight gradients into the matching
    :class:`Linear` of ``dense`` and returns the input gradient.
    """
    linears = [layer for layer in dense if isinstance(layer, Linear)]
    d = d_out
    for op, x in zip(reversed(ops), reversed(saved)):
        if op[0] == "linear":
            layer = linears.pop()
            if layer.bias is not None:
                _accumulate(layer.bias, d.sum(axis=0))
            _accumulate(layer.weight, x.T @ d)
            d = d @ op[1].T
        else:  # relu / dropout: the op multiplied by a saved mask
            d = d * x
    return d


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

def _resource_side_backward(model, d_out: np.ndarray, ops: list[tuple],
                            cache: ResourceSideCache, hs: int
                            ) -> tuple[np.ndarray | None, np.ndarray]:
    """``(d_hidden, d_plan_vec)`` from the gradient of the ``(B, P)`` costs."""
    batch, n_profiles = d_out.shape
    if cache.attention is None:
        # One answer per plan, broadcast to every profile.
        d_joined = dense_backward(d_out.sum(axis=1, keepdims=True), ops,
                                  cache.dense, model.dense)
        return None, d_joined[:, :hs]
    d_joined = dense_backward(d_out.reshape(-1, 1), ops, cache.dense,
                              model.dense).reshape(batch, n_profiles, -1)
    # Raw resources and extras are inputs, not parameters — their slice
    # of d_joined is discarded.
    d_hidden, d_wr, d_wk = resource_attention_backward(
        d_joined[:, :, hs : 2 * hs], cache.attention)
    _accumulate(model.resource_attention.w_resource, d_wr)
    _accumulate(model.resource_attention.w_key, d_wk)
    return d_hidden, d_joined[:, :, :hs].sum(axis=1)


def _plan_side_backward(model, d_hidden: np.ndarray | None,
                        d_plan_vec: np.ndarray, x: np.ndarray, emb: np.ndarray,
                        feature: LSTMCache | CNNCache,
                        pool: NodeAttentionCache | None,
                        node_mask: np.ndarray) -> None:
    """Accumulate the plan side's gradients (pooling, feature layer,
    embedding) given those of its two outputs."""
    if pool is not None:
        dh, d_wq, d_wk = node_attention_backward(d_plan_vec, pool)
        _accumulate(model.node_attention.w_query, d_wq)
        _accumulate(model.node_attention.w_key, d_wk)
    else:
        dh = masked_mean_backward(d_plan_vec, node_mask)
    d_hidden = dh if d_hidden is None else d_hidden + dh

    if model.plan_feature is not None:
        cell = model.plan_feature.cell
        d_emb, d_wx, d_wh, d_bias = fused_lstm_backward(d_hidden, feature)
        _accumulate(cell.w_x, d_wx)
        _accumulate(cell.w_h, d_wh)
        _accumulate(cell.bias, d_bias)
    else:
        d_emb, d_w, d_b = cnn_backward(d_hidden, feature)
        _accumulate(model.cnn.weight, d_w)
        _accumulate(model.cnn.bias, d_b)

    # Embedding: emb = tanh(x @ W + b)
    d_emb_pre = d_emb * (1.0 - emb * emb)
    flat = d_emb_pre.reshape(-1, d_emb_pre.shape[-1])
    _accumulate(model.embedding.weight, x.reshape(-1, x.shape[-1]).T @ flat)
    if model.embedding.bias is not None:
        _accumulate(model.embedding.bias, d_emb_pre.sum(axis=(0, 1)))


def raal_forward_backward(model, batch) -> tuple[float, np.ndarray]:
    """One fused training step for a RAAL-family model.

    Runs the graph-free forward, computes the MSE loss against
    ``batch.targets`` (the trainer's loss, eq. Sec. IV-D), and
    accumulates analytic gradients into every parameter's ``.grad`` —
    numerically equivalent (≤ 1e-8 per parameter) to the autograd
    forward followed by ``mse_loss(...).backward()``, for every
    ablation variant. Dropout is active when the model is in training
    mode; in eval mode the predictions are :func:`raal_forward_inference`'s.

    Parameters
    ----------
    model:
        A :class:`repro.core.raal.RAAL` instance (any ablation variant).
    batch:
        A :class:`repro.core.raal.RAALBatch` with ``targets`` set.

    Returns
    -------
    tuple[float, np.ndarray]
        ``(loss, predictions)`` — the scalar MSE and the ``(B,)``
        log-space predictions.
    """
    if batch.targets is None:
        raise TrainingError(
            "forward_backward needs batch.targets (collate training samples, "
            "or use forward_inference for prediction)")
    weights = replace(inference_weights(model),
                      dense=dense_ops(model.dense, model.training))
    # The plan side composed from the kernels plan_side_forward runs,
    # keeping their activations.
    x = np.asarray(batch.node_features, dtype=np.float64)
    emb = embedding_forward(x, weights.embedding_w, weights.embedding_b)
    hidden, feature = plan_feature_forward(weights, emb, batch.node_mask)
    plan_vec, pool = plan_pool_forward(weights, hidden, batch.child_mask,
                                       batch.node_mask)
    resources = np.asarray(batch.resources, dtype=np.float64)[:, None, :]
    out, res_cache = resource_side_forward(
        weights, hidden, plan_vec, resources,
        np.asarray(batch.extras, dtype=np.float64), batch.node_mask)
    pred = out[:, 0]

    diff = pred - np.asarray(batch.targets, dtype=np.float64)
    loss = float(np.mean(diff * diff))
    d_pred = (2.0 / diff.size) * diff
    d_hidden, d_plan_vec = _resource_side_backward(
        model, d_pred[:, None], weights.dense, res_cache, plan_vec.shape[1])
    _plan_side_backward(model, d_hidden, d_plan_vec, x, emb, feature, pool,
                        batch.node_mask)
    return loss, pred
