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

The kernels read the model's weights through an
:class:`InferenceWeights` bundle: the live float64 parameter arrays,
by reference, with the dense head compiled to a flat op list.
:func:`freeze_weights` rebinds every parameter to an immutable array —
what serving does to every model it installs — so an in-place write
raises instead of changing a served model under its callers.

The forward is split into a *plan-side* stage (embedding → LSTM/CNN →
node-aware attention; depends only on the plan) and a *resource-side*
stage (resource-aware attention → dense head; depends on the resource
profile too). A batch's resources are either one vector per plan
``(B, R)`` — the pairwise shape training uses — or a padded *profile
block* ``(B, P, R)``: each plan scored under up to ``P`` profiles after
one plan-side pass. The resource side treats the pairwise shape as a
block with ``P = 1``, so both run the same arithmetic; the block form
is how the inference engine serves every guarded batch (see
:class:`repro.core.execution.BucketExecutor`). A caller that already
holds a plan's plan-side output passes it in as ``plan_side`` and only
the resource side runs: the engine computes the plan side once per
plan per served model version, because served weights are immutable.

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
    "fused_lstm_forward",
    "node_attention_forward",
    "resource_attention_forward",
    "masked_mean_forward",
    "dense_forward_ops",
    "conv1d_forward",
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


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # Same clipping as Tensor.sigmoid so the two paths agree bitwise on
    # saturated gates.
    x = np.clip(x, -60.0, 60.0)
    return 1.0 / (1.0 + np.exp(-x))


def _softmax(x: np.ndarray, axis: int = -1) -> np.ndarray:
    shifted = x - x.max(axis=axis, keepdims=True)
    np.clip(shifted, SOFTMAX_FLOOR, None, out=shifted)
    np.exp(shifted, out=shifted)
    shifted /= shifted.sum(axis=axis, keepdims=True)
    return shifted


def _mask_bias(mask: np.ndarray) -> np.ndarray:
    """0 where ``mask``, a large negative logit elsewhere."""
    return np.where(mask, 0.0, _NEG_INF)


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
    # this module).
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
    scores = scores * (1.0 / float(np.sqrt(latent_dim)))
    attn = _softmax(scores + _mask_bias(child_mask), axis=-1)
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
    scores *= 1.0 / float(np.sqrt(latent_dim))
    scores += _mask_bias(node_mask)[:, :, None]
    attn = _softmax(scores, axis=1)                     # over nodes
    return attn.transpose(0, 2, 1) @ hidden             # (B, P, H)


def masked_mean_forward(x: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Numpy twin of :func:`repro.nn.functional.masked_mean`."""
    weights = mask.astype(x.dtype)
    denom = np.maximum(weights.sum(axis=1, keepdims=True), 1.0)
    return (x * weights[:, :, None]).sum(axis=1) * (1.0 / denom)


def dense_forward_ops(ops: list[tuple], x: np.ndarray) -> np.ndarray:
    """Eval-mode forward through a precompiled dense op list (see
    :class:`InferenceWeights`): ``("linear", w, b)`` / ``("relu",)``
    tuples, eval-mode Dropout already erased — no isinstance dispatch
    on the hot path.
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
# Weight bundle
# ---------------------------------------------------------------------------

@dataclass
class InferenceWeights:
    """All arrays of one RAAL-family model, as the kernels read them.

    ``dense`` is a flat op list — ``("linear", w, b)`` / ``("relu",)``
    — mirroring the model's Sequential head with eval-mode Dropout
    already erased, so the execution kernels never touch Module objects.
    """

    embedding_w: np.ndarray
    embedding_b: np.ndarray | None
    lstm: tuple[np.ndarray, np.ndarray, np.ndarray] | None   # w_x, w_h, bias
    cnn: tuple[np.ndarray, np.ndarray, int] | None           # weight, bias, kernel
    node_attention: tuple[np.ndarray, np.ndarray] | None     # w_query, w_key
    resource_attention: tuple[np.ndarray, np.ndarray] | None  # w_resource, w_key
    dense: list[tuple]
    latent_dim: int
    node_dim: int

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

    dense: list[tuple] = []
    if not isinstance(model.dense, Sequential):
        raise ShapeError("model.dense must be a Sequential of Linear/ReLU/Dropout")
    for layer in model.dense:
        if isinstance(layer, Linear):
            dense.append(("linear", layer.weight.data,
                          layer.bias.data if layer.bias is not None else None))
        elif isinstance(layer, ReLU):
            dense.append(("relu",))
        elif isinstance(layer, Dropout):
            pass  # identity at inference
        else:
            raise ShapeError(
                f"no inference kernel for dense layer {type(layer).__name__}")

    return InferenceWeights(
        embedding_w=model.embedding.weight.data,
        embedding_b=(model.embedding.bias.data
                     if model.embedding.bias is not None else None),
        lstm=lstm,
        cnn=cnn,
        node_attention=node_attention,
        resource_attention=resource_attention,
        dense=dense,
        latent_dim=config.latent_dim,
        node_dim=config.node_dim,
    )


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

    ``node_features`` must already be float64. Returns
    the feature-layer hidden states ``(B, N, H)`` and the node-attention
    (or masked-mean) pooled plan vector ``(B, H)``. A plan's rows of
    both depend only on that plan, not on how far the batch is padded.
    """
    if node_features.shape[2] != weights.node_dim:
        raise ShapeError(
            f"batch node_dim {node_features.shape[2]} != "
            f"model node_dim {weights.node_dim}")
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

    ``resources`` is the float64 ``(B, P, R)`` block.
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
                      dtype=np.float64)
    joined[:, :, :hs] = plan_vec[:, None, :]
    joined[:, :, hs : 2 * hs] = res_vec
    joined[:, :, 2 * hs : off] = resources
    joined[:, :, off:] = extras[:, None, :]
    out = dense_forward_ops(weights.dense,
                            joined.reshape(batch * n_profiles, -1))
    return out.reshape(batch, n_profiles)


def raal_forward_inference(model, batch,
                           weights: InferenceWeights | None = None,
                           plan_side: tuple[np.ndarray, np.ndarray] | None = None,
                           ) -> np.ndarray:
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
    out = resource_side_forward(
        weights, hidden, plan_vec, resources, extras, batch.node_mask)
    return out[:, 0] if pairwise else out
