"""Fused training-step kernels: analytic backward for the RAAL family.

The inference fast path (:mod:`repro.nn.inference`) removed the
autograd graph from the *forward* pass; training still paid for it
twice per batch — once to allocate a Python :class:`Tensor` per
intermediate, once to run the recorded closures backwards. The
functions here close that gap: each inference kernel gains a
cached-activation twin whose gradients are computed in closed form over
the same contiguous numpy buffers, matching the autograd gradients to
≤ 1e-8 for every parameter.

Entry point: :func:`raal_forward_backward`, also exposed as
``RAAL.forward_backward``. One call runs the fused forward (caching the
activations the gradients need), computes the MSE loss against
``batch.targets``, and accumulates closed-form gradients into every
parameter's ``.grad`` — exactly what ``model(batch)`` followed by
``mse_loss(...).backward()`` produces, without building a graph.

Gate order, masking semantics, and operation shapes follow
:mod:`repro.nn.rnn` / :mod:`repro.nn.attention`. Dropout draws its
masks from the same module-owned generators as the autograd layers, so
the fused step and the autograd reference step in ``tests/oracles.py``
consume identical random streams and ``Trainer.fit`` walks the same
loss trajectory with either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError, TrainingError
from repro.nn.inference import _sigmoid, _softmax
from repro.nn.layers import Dropout, Linear, ReLU, Sequential
from repro.nn.tensor import Tensor

__all__ = [
    "fused_lstm_forward_cached",
    "fused_lstm_backward",
    "node_attention_forward_cached",
    "node_attention_backward",
    "resource_attention_forward_cached",
    "resource_attention_backward",
    "masked_mean_backward",
    "dense_forward_cached",
    "dense_backward",
    "raal_forward_backward",
]

_NEG_INF = -1e9


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
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LSTMCache:
    """Per-timestep activations needed by :func:`fused_lstm_backward`.

    Slabs are stored time-major ``(T, B, ·)`` so each step of the
    forward/backward loops reads and writes one fully contiguous
    ``(B, ·)`` block instead of a strided slice plus a copy.
    """

    x_t: np.ndarray             # (T, B, D) inputs, time-major
    acts: np.ndarray            # (T, B, 4H) gate activations, i|f|g|o
    tanh_c: np.ndarray          # (T, B, H) tanh(c_new) per step
    outputs: np.ndarray         # (T, B, H) post-mask hidden states
    c_states: np.ndarray        # (T, B, H) post-mask cell states
    w_x: np.ndarray
    w_h: np.ndarray
    mf: np.ndarray | None       # (T, B, 1) float mask; None = all real
    col_real: np.ndarray | None  # (T,) True where every row is real


def fused_lstm_forward_cached(
    x: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, LSTMCache]:
    """:func:`repro.nn.inference.fused_lstm_forward` with activation caching.

    Same fused input-projection GEMM and mask-freeze semantics; also
    records the gate activations, ``tanh(c)``, and the (h, c) state
    entering each step, which is everything the analytic backward needs.
    """
    if x.ndim != 3:
        raise ShapeError(f"fused_lstm_forward_cached expects (batch, seq, input), got {x.shape}")
    batch, seq, input_size = x.shape
    hs = w_h.shape[0]
    # Time-major layout throughout: the fused input projection lands
    # directly in the (T, B, 4H) activation slab, and every step then
    # operates in place on one contiguous (B, 4H) block — no per-step
    # slab copies at all.
    x_t = np.ascontiguousarray(x.transpose(1, 0, 2))
    acts = (x_t.reshape(seq * batch, input_size) @ w_x).reshape(seq, batch, 4 * hs)
    acts += bias
    # Scratch follows the dtype of the inputs.
    dtype = acts.dtype
    h = np.zeros((batch, hs), dtype=dtype)
    c = np.zeros((batch, hs), dtype=dtype)
    outputs = np.empty((seq, batch, hs), dtype=dtype)
    tanh_c = np.empty((seq, batch, hs), dtype=dtype)
    c_states = np.empty((seq, batch, hs), dtype=dtype)
    mf = col_real = None
    if mask is not None:
        mf = np.ascontiguousarray(mask.T.astype(dtype))[:, :, None]
        col_real = mask.all(axis=0)
    gemm = np.empty((batch, 4 * hs), dtype=dtype)
    g = np.empty((batch, hs), dtype=dtype)
    for t in range(seq):
        gates = acts[t]
        np.matmul(h, w_h, out=gemm)
        gates += gemm
        # Tanh block first, then one in-place sigmoid sweep over the
        # whole gate block (overwriting the tanh slice after) — one
        # pass, no extra temporaries. σ(x) = (1 + tanh(x/2))/2 matches
        # 1/(1+exp(-clip(x, ±60))) to one ulp and needs no clip pass
        # (tanh saturates on its own).
        np.tanh(gates[:, 2 * hs : 3 * hs], out=g)
        gates *= 0.5
        np.tanh(gates, out=gates)
        gates += 1.0
        gates *= 0.5
        gates[:, 2 * hs : 3 * hs] = g
        i = gates[:, 0 * hs : 1 * hs]
        f = gates[:, 1 * hs : 2 * hs]
        o = gates[:, 3 * hs : 4 * hs]
        c_new = np.multiply(f, c, out=c_states[t])
        c_new += i * g
        tc = np.tanh(c_new, out=tanh_c[t])
        h_new = np.multiply(o, tc, out=outputs[t])
        if col_real is None or col_real[t]:
            # Every row is real at this step (buckets are length-sorted,
            # so that is the common case): no freeze blend needed.
            h, c = h_new, c_new
        else:
            # m is binary, so blending in place via h + (h_new - h)*m
            # selects exactly like h_new*m + h_prev*(1-m).
            m = mf[t]
            h_new -= h
            h_new *= m
            h_new += h
            c_new -= c
            c_new *= m
            c_new += c
            h, c = h_new, c_new
    cache = LSTMCache(x_t=x_t, acts=acts, tanh_c=tanh_c, outputs=outputs,
                      c_states=c_states, w_x=w_x, w_h=w_h, mf=mf,
                      col_real=col_real)
    return np.ascontiguousarray(outputs.transpose(1, 0, 2)), cache


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


# ---------------------------------------------------------------------------
# Attention
# ---------------------------------------------------------------------------

@dataclass
class NodeAttentionCache:
    """Activations for :func:`node_attention_backward`."""

    hidden: np.ndarray          # (B, N, H)
    queries: np.ndarray         # (B, N, K)
    keys: np.ndarray            # (B, N, K)
    attn0: np.ndarray           # raw softmax (B, N, N)
    attn: np.ndarray            # attn0 * has_children
    has_children: np.ndarray    # (B, N, 1) float
    node_w: np.ndarray          # (B, N) float node weights
    denom: np.ndarray           # (B, 1) pooling denominator
    w_query: np.ndarray
    w_key: np.ndarray
    scale: float


def node_attention_forward_cached(
    hidden: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    child_mask: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> tuple[np.ndarray, NodeAttentionCache]:
    """:func:`~repro.nn.inference.node_attention_forward` with caching."""
    batch, n, _ = hidden.shape
    if child_mask.shape != (batch, n, n):
        raise ShapeError(f"child_mask shape {child_mask.shape} != {(batch, n, n)}")
    hidden_flat = hidden.reshape(batch * n, -1)
    queries = (hidden_flat @ w_query).reshape(batch, n, -1)
    keys = (hidden_flat @ w_key).reshape(batch, n, -1)
    scale = 1.0 / np.sqrt(latent_dim)
    scores = queries @ keys.transpose(0, 2, 1)
    scores *= scale
    scores += np.where(child_mask, 0.0, _NEG_INF)
    attn0 = _softmax(scores, axis=-1)
    has_children = child_mask.any(axis=-1, keepdims=True).astype(np.float64)
    attn = attn0 * has_children
    context = attn @ hidden + hidden * (1.0 - has_children)
    node_w = node_mask.astype(np.float64)
    denom = np.maximum(node_w.sum(axis=1, keepdims=True), 1.0)
    pooled = (context * node_w[:, :, None]).sum(axis=1) * (1.0 / denom)
    cache = NodeAttentionCache(
        hidden=hidden, queries=queries, keys=keys, attn0=attn0, attn=attn,
        has_children=has_children, node_w=node_w, denom=denom,
        w_query=w_query, w_key=w_key, scale=scale)
    return pooled, cache


def node_attention_backward(
    d_pooled: np.ndarray, cache: NodeAttentionCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of node-aware attention: ``(d_hidden, d_w_query, d_w_key)``.

    Childless rows (leaves and padded nodes) carried a zeroed attention
    row in the forward, so their softmax receives no gradient and the
    self-term routes their gradient directly to ``hidden``.
    """
    # pooled = sum_n context * w / denom
    d_context = d_pooled[:, None, :] * (cache.node_w / cache.denom)[:, :, None]
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


@dataclass
class ResourceAttentionCache:
    """Activations for :func:`resource_attention_backward`."""

    hidden: np.ndarray          # (B, N, H)
    resources: np.ndarray       # (B, R)
    query: np.ndarray           # (B, K)
    keys: np.ndarray            # (B, N, K)
    attn: np.ndarray            # (B, N)
    w_resource: np.ndarray
    w_key: np.ndarray
    scale: float


def resource_attention_forward_cached(
    hidden: np.ndarray,
    resources: np.ndarray,
    w_resource: np.ndarray,
    w_key: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> tuple[np.ndarray, ResourceAttentionCache]:
    """:func:`~repro.nn.inference.resource_attention_forward` with caching."""
    if resources.shape[-1] != w_resource.shape[0]:
        raise ShapeError(
            f"expected resource dim {w_resource.shape[0]}, got {resources.shape[-1]}")
    query = resources @ w_resource
    b, n, h = hidden.shape
    keys = (hidden.reshape(b * n, h) @ w_key).reshape(b, n, -1)
    scale = 1.0 / np.sqrt(latent_dim)
    scores = (keys @ query[:, :, None]).squeeze(2)
    scores *= scale
    scores += np.where(node_mask, 0.0, _NEG_INF)
    attn = _softmax(scores, axis=-1)
    out = (hidden * attn[:, :, None]).sum(axis=1)
    cache = ResourceAttentionCache(
        hidden=hidden, resources=resources, query=query, keys=keys, attn=attn,
        w_resource=w_resource, w_key=w_key, scale=scale)
    return out, cache


def resource_attention_backward(
    d_out: np.ndarray, cache: ResourceAttentionCache,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of resource attention: ``(d_hidden, d_w_resource, d_w_key)``."""
    # out = sum_n hidden * attn
    d_attn = (cache.hidden * d_out[:, None, :]).sum(axis=-1)
    d_hidden = cache.attn[:, :, None] * d_out[:, None, :]
    # attn = softmax(scores + node bias)
    dot = (d_attn * cache.attn).sum(axis=-1, keepdims=True)
    d_scores = cache.attn * (d_attn - dot) * cache.scale
    # scores = keys @ query
    d_keys = d_scores[:, :, None] * cache.query[:, None, :]
    d_query = (d_scores[:, :, None] * cache.keys).sum(axis=1)
    d_wr = cache.resources.T @ d_query
    dk_flat = d_keys.reshape(-1, d_keys.shape[-1])
    d_wk = cache.hidden.reshape(-1, cache.hidden.shape[-1]).T @ dk_flat
    # One flat GEMM instead of a B-deep batched matmul.
    d_hidden += (dk_flat @ cache.w_key.T).reshape(d_hidden.shape)
    return d_hidden, d_wr, d_wk


def masked_mean_backward(d_pooled: np.ndarray, node_mask: np.ndarray) -> np.ndarray:
    """Gradient of :func:`~repro.nn.inference.masked_mean_forward`."""
    weights = node_mask.astype(np.float64)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return d_pooled[:, None, :] * (weights / denom)[:, :, None]


# ---------------------------------------------------------------------------
# Dense head
# ---------------------------------------------------------------------------

def dense_forward_cached(
    dense: Sequential, x: np.ndarray, training: bool,
) -> tuple[np.ndarray, list[tuple[str, Linear | None, np.ndarray | None]]]:
    """Forward through a Linear/ReLU/Dropout stack, caching per-layer state.

    In training mode Dropout draws its mask from the layer's own
    generator with the same call the autograd layer makes, so the fused
    and autograd steps consume identical random streams.
    """
    caches: list[tuple[str, Linear | None, np.ndarray | None]] = []
    for layer in dense:
        if isinstance(layer, Linear):
            caches.append(("linear", layer, x))
            x = x @ layer.weight.data
            if layer.bias is not None:
                x = x + layer.bias.data
        elif isinstance(layer, ReLU):
            mask = x > 0
            caches.append(("relu", None, mask))
            x = x * mask
        elif isinstance(layer, Dropout):
            if training and layer.p > 0.0:
                keep = 1.0 - layer.p
                mask = (layer._rng.random(x.shape) < keep) / keep
                caches.append(("dropout", None, mask))
                x = x * mask
            else:
                caches.append(("identity", None, None))
        else:
            raise ShapeError(
                f"no analytic backward for dense layer {type(layer).__name__}")
    return x, caches


def dense_backward(
    d_out: np.ndarray,
    caches: list[tuple[str, Linear | None, np.ndarray | None]],
) -> np.ndarray:
    """Backward through the cached dense stack; accumulates layer grads."""
    d = d_out
    for kind, layer, saved in reversed(caches):
        if kind == "linear":
            if layer.bias is not None:
                _accumulate(layer.bias, d.sum(axis=0))
            _accumulate(layer.weight, saved.T @ d)
            d = d @ layer.weight.data.T
        elif kind in ("relu", "dropout"):
            d = d * saved
        # "identity": eval-mode dropout, gradient passes through
    return d


# ---------------------------------------------------------------------------
# Full model
# ---------------------------------------------------------------------------

def raal_forward_backward(model, batch) -> tuple[float, np.ndarray]:
    """One fused training step for a RAAL-family model.

    Runs the graph-free forward with activation caching, computes the
    MSE loss against ``batch.targets`` (the trainer's loss, eq.
    Sec. IV-D), and accumulates analytic gradients into every
    parameter's ``.grad`` — numerically equivalent (≤ 1e-8 per
    parameter) to ``mse_loss(model(batch), Tensor(batch.targets))``
    followed by ``.backward()``, for every ablation variant.

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
    config = model.config
    if batch.targets is None:
        raise TrainingError(
            "forward_backward needs batch.targets (collate training samples, "
            "or use forward_inference for prediction)")
    x = np.asarray(batch.node_features, dtype=np.float64)
    if x.shape[2] != config.node_dim:
        raise ShapeError(
            f"batch node_dim {x.shape[2]} != model node_dim {config.node_dim}")
    targets = np.asarray(batch.targets, dtype=np.float64)
    batch_size = x.shape[0]

    # -- forward, caching what the gradients need -----------------------
    emb = x @ model.embedding.weight.data
    if model.embedding.bias is not None:
        emb += model.embedding.bias.data
    np.tanh(emb, out=emb)

    lstm_cache = cnn_state = None
    if model.plan_feature is not None:
        cell = model.plan_feature.cell
        hidden, lstm_cache = fused_lstm_forward_cached(
            emb, cell.w_x.data, cell.w_h.data, cell.bias.data,
            mask=batch.node_mask)
    else:
        pad_len = config.cnn_kernel - 1
        embp = emb
        if pad_len:
            b, _, dim = emb.shape
            embp = np.concatenate([np.zeros((b, pad_len, dim)), emb], axis=1)
        b, seq, dim = embp.shape
        k = config.cnn_kernel
        seq_out = seq - k + 1
        cols = np.empty((b, seq_out, k * dim))
        for t in range(seq_out):
            cols[:, t, :] = embp[:, t : t + k, :].reshape(b, k * dim)
        pre = cols @ model.cnn.weight.data + model.cnn.bias.data
        relu_mask = pre > 0
        hidden = pre * relu_mask
        cnn_state = (cols, relu_mask, pad_len)

    na_cache = ra_cache = None
    if model.node_attention is not None:
        plan_vec, na_cache = node_attention_forward_cached(
            hidden, model.node_attention.w_query.data,
            model.node_attention.w_key.data,
            batch.child_mask, batch.node_mask, config.latent_dim)
    else:
        plan_vec = (hidden * batch.node_mask.astype(np.float64)[:, :, None]
                    ).sum(axis=1) / np.maximum(
                        batch.node_mask.sum(axis=1, keepdims=True), 1.0)

    parts = [plan_vec]
    if model.resource_attention is not None:
        resources = np.asarray(batch.resources, dtype=np.float64)
        res_vec, ra_cache = resource_attention_forward_cached(
            hidden, resources, model.resource_attention.w_resource.data,
            model.resource_attention.w_key.data,
            batch.node_mask, config.latent_dim)
        parts.append(res_vec)
        parts.append(resources)
    parts.append(np.asarray(batch.extras, dtype=np.float64))
    joined = np.concatenate(parts, axis=1)
    out, dense_caches = dense_forward_cached(
        model.dense, joined, training=model.training)
    pred = out[:, 0]

    diff = pred - targets
    loss = float(np.mean(diff * diff))

    # -- backward -------------------------------------------------------
    d_pred = (2.0 / diff.size) * diff
    d_joined = dense_backward(d_pred[:, None], dense_caches)

    hs = config.hidden_size
    d_plan_vec = d_joined[:, :hs]
    d_hidden = None
    if model.resource_attention is not None:
        # Raw resources and extras are inputs, not parameters — their
        # slice of d_joined is discarded.
        d_res_vec = d_joined[:, hs : 2 * hs]
        d_hidden, d_wr, d_wk = resource_attention_backward(d_res_vec, ra_cache)
        _accumulate(model.resource_attention.w_resource, d_wr)
        _accumulate(model.resource_attention.w_key, d_wk)
    if model.node_attention is not None:
        dh, d_wq, d_wk = node_attention_backward(d_plan_vec, na_cache)
        d_hidden = dh if d_hidden is None else d_hidden + dh
        _accumulate(model.node_attention.w_query, d_wq)
        _accumulate(model.node_attention.w_key, d_wk)
    else:
        dh = masked_mean_backward(d_plan_vec, batch.node_mask)
        d_hidden = dh if d_hidden is None else d_hidden + dh

    if model.plan_feature is not None:
        cell = model.plan_feature.cell
        d_emb, d_wx, d_wh, d_bias = fused_lstm_backward(d_hidden, lstm_cache)
        _accumulate(cell.w_x, d_wx)
        _accumulate(cell.w_h, d_wh)
        _accumulate(cell.bias, d_bias)
    else:
        cols, relu_mask, pad_len = cnn_state
        b, seq_out, kdim = cols.shape
        k = config.cnn_kernel
        dim = kdim // k
        d_pre = d_hidden * relu_mask
        _accumulate(model.cnn.bias, d_pre.sum(axis=(0, 1)))
        _accumulate(model.cnn.weight,
                    cols.reshape(b * seq_out, kdim).T
                    @ d_pre.reshape(b * seq_out, -1))
        d_cols = d_pre @ model.cnn.weight.data.T
        d_embp = np.zeros((b, seq_out + k - 1, dim))
        for t in range(seq_out):
            d_embp[:, t : t + k, :] += d_cols[:, t].reshape(b, k, dim)
        d_emb = d_embp[:, pad_len:, :] if pad_len else d_embp

    # Embedding: emb = tanh(x @ W + b)
    d_emb_pre = d_emb * (1.0 - emb * emb)
    flat = d_emb_pre.reshape(-1, d_emb_pre.shape[-1])
    _accumulate(model.embedding.weight,
                x.reshape(-1, x.shape[-1]).T @ flat)
    if model.embedding.bias is not None:
        _accumulate(model.embedding.bias, d_emb_pre.sum(axis=(0, 1)))
    return loss, pred
