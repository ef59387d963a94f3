"""Graph-free forward kernels for the RAAL model family.

RAAL's one forward — embedding → LSTM (CNN in the RAAC ablation) →
node-aware attention (or masked-mean pooling) → resource-aware
attention → dense head — written once, on raw numpy arrays: no
autograd graph, no Tensor wrappers. Each block's kernel returns its
output together with the activations its backward reads. Serving
drops them; the training step (:mod:`repro.nn.training`) hands them to
its closed-form backward, so training and serving run the same
arithmetic. The autograd reference forward the kernels are checked
against lives in the test suite (``tests/oracles.py``); predictions
agree with it to float rounding (≤ 1e-8).

The LSTM forward is *fused*: the input projections of all timesteps
are computed in a single ``(B·T, D) @ (D, 4H)`` GEMM up front, so the
per-timestep loop only carries the (irreducibly sequential) recurrent
``h @ W_h`` product.

The kernels read the model's weights through an
:class:`InferenceWeights` bundle: the live float64 parameter arrays,
by reference, with the dense head compiled to a flat op list.
:func:`freeze_weights` rebinds every parameter to an immutable array —
what serving does to every model it installs — so an in-place write
raises instead of changing a served model under its callers.

The forward is split into a *plan-side* stage (embedding → LSTM/CNN →
node-aware attention; depends only on the plan) and a *resource-side*
stage (resource-aware attention → dense head; depends on the resource
profile too). The resource side scores a padded *profile block*
``(B, P, R)``: each plan under up to ``P`` profiles after one
plan-side pass. One resource vector per plan ``(B, R)`` — the shape
training uses — is the block with ``P = 1``, so both run the same
arithmetic; the block form is how the inference engine serves every
guarded batch (see :class:`repro.core.execution.BucketExecutor`). A
caller that already holds a plan's plan-side output passes it in as
``plan_side`` and only the resource side runs: the engine computes
the plan side once per plan per served model version, because served
weights are immutable.

Entry point: :func:`raal_forward_inference`, also exposed as
``RAAL.forward_inference``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ShapeError
from repro.nn.layers import Dropout, Linear, ReLU, Sequential

__all__ = [
    "InferenceWeights",
    "inference_weights",
    "freeze_weights",
    "is_immutable",
    "embedding_forward",
    "fused_lstm_forward",
    "cnn_forward",
    "masked_mean_forward",
    "node_attention_forward",
    "resource_attention_forward",
    "dense_ops",
    "dense_forward",
    "plan_feature_forward",
    "plan_pool_forward",
    "plan_side_forward",
    "resource_side_forward",
    "raal_forward_inference",
]

_NEG_INF = -1e9

#: Logit floor for masked softmax entries. Mask bias pushes masked
#: scores to ~-1e9; exp() of those underflows through libm's slow
#: denormal path, and anything near the underflow edge turns into
#: denormals after the normalizing division, poisoning every downstream
#: multiply. float64 underflows below exp(-745) (min normal ~2.2e-308),
#: so -200 keeps exp fast and every derived value normal, with ~1e-87
#: headroom, while perturbing masked weights by < 1e-86.
SOFTMAX_FLOOR = -200.0


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    np.clip(shifted, SOFTMAX_FLOOR, None, out=shifted)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _mask_bias(mask: np.ndarray) -> np.ndarray:
    """0 where ``mask``, a large negative logit elsewhere."""
    return np.where(mask, 0.0, _NEG_INF)


def embedding_forward(x: np.ndarray, weight: np.ndarray,
                      bias: np.ndarray | None) -> np.ndarray:
    """The node embedding layer, ``tanh(x W + b)``.

    Its backward reads only the input and this output.
    """
    if x.shape[-1] != weight.shape[0]:
        raise ShapeError(
            f"batch node_dim {x.shape[-1]} != model node_dim {weight.shape[0]}")
    emb = x @ weight
    if bias is not None:
        emb += bias
    return np.tanh(emb, out=emb)


# ---------------------------------------------------------------------------
# LSTM
# ---------------------------------------------------------------------------

@dataclass
class LSTMCache:
    """Per-timestep activations the LSTM backward reads.

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


def fused_lstm_forward(
    x: np.ndarray,
    w_x: np.ndarray,
    w_h: np.ndarray,
    bias: np.ndarray,
    mask: np.ndarray | None = None,
) -> tuple[np.ndarray, LSTMCache]:
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
        (False) steps.

    Returns
    -------
    tuple[np.ndarray, LSTMCache]
        Hidden states ``(batch, seq, H)`` and the activations the
        backward reads: the gate activations, ``tanh(c)`` and the
        (h, c) state of each step.
    """
    if x.ndim != 3:
        raise ShapeError(f"fused_lstm_forward expects (batch, seq, input), got {x.shape}")
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


# ---------------------------------------------------------------------------
# CNN (the RAAC ablation's plan-feature layer)
# ---------------------------------------------------------------------------

@dataclass
class CNNCache:
    """Activations the CNN backward reads."""

    cols: np.ndarray            # (B, N, k·D) im2col windows of the padded input
    relu_mask: np.ndarray       # (B, N, H)
    weight: np.ndarray
    kernel: int


def cnn_forward(x: np.ndarray, weight: np.ndarray, bias: np.ndarray,
                kernel: int) -> tuple[np.ndarray, CNNCache]:
    """Conv1d (im2col, stride 1) + ReLU over ``x`` left-padded by
    ``kernel - 1`` zero rows, so the output keeps the input's length:
    ``(B, N, D)`` → ``(B, N, H)``."""
    batch, seq, dim = x.shape
    padded = np.zeros((batch, seq + kernel - 1, dim))
    padded[:, kernel - 1 :] = x
    cols = np.empty((batch, seq, kernel * dim))
    for t in range(seq):
        cols[:, t, :] = padded[:, t : t + kernel, :].reshape(batch, kernel * dim)
    pre = cols @ weight + bias
    relu_mask = pre > 0
    return pre * relu_mask, CNNCache(cols, relu_mask, weight, kernel)


# ---------------------------------------------------------------------------
# Attention and pooling
# ---------------------------------------------------------------------------

def masked_mean_forward(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mean of ``x`` ``(B, N, D)`` over the real nodes of ``mask``.

    Its backward reads only the mask.
    """
    weights = mask.astype(x.dtype)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (x * weights[:, :, None]).sum(axis=1) * (1.0 / denom)


@dataclass
class NodeAttentionCache:
    """Activations the node-attention backward reads."""

    hidden: np.ndarray          # (B, N, H)
    queries: np.ndarray         # (B, N, K)
    keys: np.ndarray            # (B, N, K)
    attn0: np.ndarray           # raw softmax (B, N, N)
    attn: np.ndarray            # attn0 * has_children
    has_children: np.ndarray    # (B, N, 1) float
    node_mask: np.ndarray       # (B, N) pooling mask
    w_query: np.ndarray
    w_key: np.ndarray
    scale: float


def node_attention_forward(
    hidden: np.ndarray,
    w_query: np.ndarray,
    w_key: np.ndarray,
    child_mask: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> tuple[np.ndarray, NodeAttentionCache]:
    """Node-aware attention (eqs. 8/9), mean-pooled: the plan vector ``(B, H)``.

    Each node attends over its children only; a childless node (a leaf
    or padding) keeps its own hidden state.
    """
    batch, n, _ = hidden.shape
    if child_mask.shape != (batch, n, n):
        raise ShapeError(f"child_mask shape {child_mask.shape} != {(batch, n, n)}")
    queries = hidden @ w_query
    keys = hidden @ w_key
    scale = 1.0 / np.sqrt(latent_dim)
    scores = queries @ keys.transpose(0, 2, 1)
    scores *= scale
    scores += _mask_bias(child_mask)
    attn0 = _softmax(scores, axis=-1)
    has_children = child_mask.any(axis=-1, keepdims=True).astype(np.float64)
    attn = attn0 * has_children
    context = attn @ hidden + hidden * (1.0 - has_children)
    cache = NodeAttentionCache(
        hidden=hidden, queries=queries, keys=keys, attn0=attn0, attn=attn,
        has_children=has_children, node_mask=node_mask,
        w_query=w_query, w_key=w_key, scale=scale)
    return masked_mean_forward(context, node_mask), cache


@dataclass
class ResourceAttentionCache:
    """Activations the resource-attention backward reads."""

    hidden: np.ndarray          # (B, N, H)
    resources: np.ndarray       # (B, P, R)
    query: np.ndarray           # (B, P, K)
    keys: np.ndarray            # (B, N, K)
    attn: np.ndarray            # (B, N, P), normalized over nodes
    w_key: np.ndarray
    scale: float


def resource_attention_forward(
    hidden: np.ndarray,
    resources: np.ndarray,
    w_resource: np.ndarray,
    w_key: np.ndarray,
    node_mask: np.ndarray,
    latent_dim: int,
) -> tuple[np.ndarray, ResourceAttentionCache]:
    """Resource-aware attention (eqs. 10/11) over a profile block.

    ``hidden`` ``(B, N, H)`` and ``resources`` ``(B, P, R)`` give the
    resource-attended context ``(B, P, H)`` of each plan under each of
    its ``P`` profiles. The keys are computed once per plan, not once
    per profile.
    """
    if resources.shape[-1] != w_resource.shape[0]:
        raise ShapeError(
            f"expected resource dim {w_resource.shape[0]}, got {resources.shape[-1]}")
    query = resources @ w_resource                                   # (B, P, K)
    keys = hidden @ w_key                                            # (B, N, K)
    scale = 1.0 / np.sqrt(latent_dim)
    scores = keys @ query.transpose(0, 2, 1)                         # (B, N, P)
    scores *= scale
    scores += _mask_bias(node_mask)[:, :, None]
    attn = _softmax(scores, axis=1)                                  # over nodes
    cache = ResourceAttentionCache(
        hidden=hidden, resources=resources, query=query, keys=keys,
        attn=attn, w_key=w_key, scale=scale)
    return attn.transpose(0, 2, 1) @ hidden, cache                   # (B, P, H)


# ---------------------------------------------------------------------------
# Dense head
# ---------------------------------------------------------------------------

def dense_ops(dense: Sequential, training: bool) -> list[tuple]:
    """The head as a flat op list :func:`dense_forward` runs.

    ``("linear", w, b)`` / ``("relu",)`` tuples, plus ``("dropout",
    rng, p)`` for each active Dropout when ``training``; an eval-mode
    Dropout is the identity and is left out, so the hot path never
    touches Module objects.
    """
    if not isinstance(dense, Sequential):
        raise ShapeError("model.dense must be a Sequential of Linear/ReLU/Dropout")
    ops: list[tuple] = []
    for layer in dense:
        if isinstance(layer, Linear):
            ops.append(("linear", layer.weight.data,
                        layer.bias.data if layer.bias is not None else None))
        elif isinstance(layer, ReLU):
            ops.append(("relu",))
        elif isinstance(layer, Dropout):
            if training and layer.p > 0.0:
                ops.append(("dropout", layer._rng, layer.p))
        else:
            raise ShapeError(
                f"no kernel for dense layer {type(layer).__name__}")
    return ops


def dense_forward(ops: list[tuple], x: np.ndarray
                  ) -> tuple[np.ndarray, list[np.ndarray]]:
    """Run ``x`` through a :func:`dense_ops` list.

    Returns the output and, per op, what the backward reads: a Linear's
    input, a ReLU's or a Dropout's multiplicative mask. Dropout draws
    its mask from the layer's own generator with the same call the
    autograd layer makes, so both consume identical random streams.
    """
    saved = []
    for op in ops:
        if op[0] == "linear":
            saved.append(x)
            x = x @ op[1]
            if op[2] is not None:
                x = x + op[2]
            continue
        if op[0] == "relu":
            mask = x > 0
        else:  # dropout
            keep = 1.0 - op[2]
            mask = (op[1].random(x.shape) < keep) / keep
        saved.append(mask)
        x = x * mask
    return x, saved


# ---------------------------------------------------------------------------
# Weight bundle
# ---------------------------------------------------------------------------

@dataclass
class InferenceWeights:
    """All arrays of one RAAL-family model, as the kernels read them.

    ``dense`` is the head's :func:`dense_ops` list; the bundle
    :func:`inference_weights` builds is eval-mode (no Dropout).
    """

    embedding_w: np.ndarray
    embedding_b: np.ndarray | None
    lstm: tuple[np.ndarray, np.ndarray, np.ndarray] | None   # w_x, w_h, bias
    cnn: tuple[np.ndarray, np.ndarray, int] | None           # weight, bias, kernel
    node_attention: tuple[np.ndarray, np.ndarray] | None     # w_query, w_key
    resource_attention: tuple[np.ndarray, np.ndarray] | None  # w_resource, w_key
    dense: list[tuple]
    latent_dim: int

    def arrays(self) -> tuple[np.ndarray, ...]:
        """Every weight array of the bundle, in a fixed order."""
        parts = [self.embedding_w, self.embedding_b, *(self.lstm or ()),
                 *(self.cnn[:2] if self.cnn is not None else ()),
                 *(self.node_attention or ()),
                 *(self.resource_attention or ())]
        for op in self.dense:
            if op[0] == "linear":
                parts.extend(op[1:])
        return tuple(a for a in parts if a is not None)


def is_immutable(array: np.ndarray) -> bool:
    """True when no one can write ``array`` or make it writeable again.

    That holds for a read-only array whose memory is an immutable
    ``bytes`` object (what :func:`freeze_weights` builds), not for a
    read-only view of writable memory.
    """
    if array.flags.writeable:
        return False
    base = array.base
    while isinstance(base, np.ndarray):
        base = base.base
    return isinstance(base, bytes)


def freeze_weights(model) -> None:
    """Rebind every parameter of ``model`` to an immutable copy.

    Each array is backed by a ``bytes`` buffer, so an in-place write
    (an optimizer step, ``load_state_dict``, fault injection) raises,
    and so does setting its ``WRITEABLE`` flag. Idempotent. A frozen
    model changes only by rebinding its parameters to new arrays.
    """
    for param in model.parameters():
        data = param.data
        if not is_immutable(data):
            param.data = np.ndarray(data.shape, dtype=data.dtype,
                                    buffer=np.ascontiguousarray(data).tobytes())


def inference_weights(model) -> InferenceWeights:
    """The model's weights as an execution bundle.

    Every array is the live parameter array itself (no copies), so a
    bundle built per call is always current: on a writable model an
    optimizer step, a ``load_state_dict`` or an in-place edit reaches
    the next forward with nothing to invalidate. On a frozen model
    (:func:`freeze_weights`) such a write raises.
    """
    config = model.config
    lstm = cnn = None
    if model.plan_feature is not None:
        cell = model.plan_feature.cell
        lstm = (cell.w_x.data, cell.w_h.data, cell.bias.data)
    else:
        cnn = (model.cnn.weight.data, model.cnn.bias.data, config.cnn_kernel)

    node_attention = resource_attention = None
    if model.node_attention is not None:
        node_attention = (model.node_attention.w_query.data,
                          model.node_attention.w_key.data)
    if model.resource_attention is not None:
        resource_attention = (model.resource_attention.w_resource.data,
                              model.resource_attention.w_key.data)

    return InferenceWeights(
        embedding_w=model.embedding.weight.data,
        embedding_b=(model.embedding.bias.data
                     if model.embedding.bias is not None else None),
        lstm=lstm,
        cnn=cnn,
        node_attention=node_attention,
        resource_attention=resource_attention,
        dense=dense_ops(model.dense, training=False),
        latent_dim=config.latent_dim,
    )


# ---------------------------------------------------------------------------
# Staged forward
# ---------------------------------------------------------------------------

def plan_feature_forward(weights: InferenceWeights, emb: np.ndarray,
                         node_mask: np.ndarray
                         ) -> tuple[np.ndarray, LSTMCache | CNNCache]:
    """The plan-feature layer — the LSTM, or RAAC's CNN — over the
    embedded nodes: ``(hidden, activations)``."""
    if weights.lstm is not None:
        return fused_lstm_forward(emb, *weights.lstm, mask=node_mask)
    return cnn_forward(emb, *weights.cnn)


def plan_pool_forward(weights: InferenceWeights, hidden: np.ndarray,
                      child_mask: np.ndarray, node_mask: np.ndarray
                      ) -> tuple[np.ndarray, NodeAttentionCache | None]:
    """Node-aware attention, or the NA-LSTM ablation's masked mean
    (whose backward needs no activations): ``(plan_vec, activations)``."""
    if weights.node_attention is None:
        return masked_mean_forward(hidden, node_mask), None
    return node_attention_forward(hidden, *weights.node_attention,
                                  child_mask, node_mask, weights.latent_dim)


def plan_side_forward(
    weights: InferenceWeights,
    node_features: np.ndarray,
    child_mask: np.ndarray,
    node_mask: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Everything that depends only on the plan: ``(hidden, plan_vec)``.

    ``node_features`` must already be float64. Returns
    the feature-layer hidden states ``(B, N, H)`` and the node-attention
    (or masked-mean) pooled plan vector ``(B, H)``. A plan's rows of
    both depend only on that plan, not on how far the batch is padded.
    Each kernel's activations are dropped as it returns, so the LSTM's
    per-step slabs are freed before the attention allocates.
    """
    emb = embedding_forward(node_features, weights.embedding_w,
                            weights.embedding_b)
    hidden = plan_feature_forward(weights, emb, node_mask)[0]
    return hidden, plan_pool_forward(weights, hidden, child_mask, node_mask)[0]


@dataclass
class ResourceSideCache:
    """What the resource side's backward reads."""

    attention: ResourceAttentionCache | None    # None: resource-blind
    dense: list[np.ndarray]     # dense_forward's saved inputs and masks


def resource_side_forward(
    weights: InferenceWeights,
    hidden: np.ndarray,
    plan_vec: np.ndarray,
    resources: np.ndarray,
    extras: np.ndarray,
    node_mask: np.ndarray,
) -> tuple[np.ndarray, ResourceSideCache]:
    """Resource attention + dense head over a profile block: ``(B, P)``.

    ``resources`` is the float64 ``(B, P, R)`` block.
    The resource-blind ablation never reads it: its one answer per plan
    is broadcast to every profile. Also returns the activations the
    backward reads (serving drops them): unlike the plan side's LSTM
    slabs they are small, so the training step and serving share this
    one composition.
    """
    batch, n_profiles, resource_dim = resources.shape
    if weights.resource_attention is None:
        joined = np.concatenate([plan_vec, extras], axis=1)
        row, saved = dense_forward(weights.dense, joined)          # (B, 1)
        return np.repeat(row, n_profiles, axis=1), ResourceSideCache(None, saved)
    res_vec, attention = resource_attention_forward(
        hidden, resources, *weights.resource_attention, node_mask,
        weights.latent_dim)
    hs = plan_vec.shape[1]
    off = 2 * hs + resource_dim
    joined = np.empty((batch, n_profiles, off + extras.shape[1]),
                      dtype=np.float64)
    joined[:, :, :hs] = plan_vec[:, None, :]
    joined[:, :, hs : 2 * hs] = res_vec
    joined[:, :, 2 * hs : off] = resources
    joined[:, :, off:] = extras[:, None, :]
    out, saved = dense_forward(weights.dense,
                               joined.reshape(batch * n_profiles, -1))
    return out.reshape(batch, n_profiles), ResourceSideCache(attention, saved)


def raal_forward_inference(model, batch,
                           weights: InferenceWeights | None = None,
                           plan_side: tuple[np.ndarray, np.ndarray] | None = None,
                           ) -> np.ndarray:
    """Graph-free eval-mode forward of a RAAL-family model.

    The same kernels as the training step
    (:func:`repro.nn.training.raal_forward_backward`), with the
    activations they return dropped.

    Parameters
    ----------
    model:
        A :class:`repro.core.raal.RAAL` instance (any ablation variant).
    batch:
        A :class:`repro.core.raal.RAALBatch`. Its ``resources`` are
        either ``(B, R)`` — one profile per plan — or a ``(B, P, R)``
        profile block, each plan under ``P`` profiles.
    weights:
        Optional weight bundle (:func:`inference_weights`), so a caller
        running many batches builds it once; defaults to the model's
        own.
    plan_side:
        Optional precomputed ``(hidden, plan_vec)`` of the batch's plans
        (:func:`plan_side_forward`, ``hidden`` padded to the batch's
        node count). Only the resource side then runs, and the batch's
        ``node_features`` and ``child_mask`` are not read.

    Returns
    -------
    np.ndarray
        Predicted (log-)costs: ``(B,)`` for pairwise resources,
        ``(B, P)`` for a profile block.
    """
    if weights is None:
        weights = inference_weights(model)
    if plan_side is None:
        plan_side = plan_side_forward(
            weights, np.asarray(batch.node_features, dtype=np.float64),
            batch.child_mask, batch.node_mask)
    hidden, plan_vec = plan_side
    resources = np.asarray(batch.resources, dtype=np.float64)
    pairwise = resources.ndim == 2
    if pairwise:
        resources = resources[:, None, :]
    extras = np.asarray(batch.extras, dtype=np.float64)
    out, _ = resource_side_forward(
        weights, hidden, plan_vec, resources, extras, batch.node_mask)
    return out[:, 0] if pairwise else out
