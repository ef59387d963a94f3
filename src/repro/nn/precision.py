"""Precision policy for the inference engine: f64 / f32 tiers.

The dtype policy is decided once per predictor (``PredictorConfig``)
and materialized here as an :class:`InferenceWeights` bundle — every
array the graph-free forward needs, already in the execution dtype:

* ``f64`` — the model's own parameter arrays, by reference (no copies);
  this tier is bit-identical to the pre-precision inference path.
* ``f32`` — float32 copies of every parameter. OpenBLAS moves roughly
  twice the FLOPs at half the memory traffic, and the elementwise
  tanh/exp sweeps in the LSTM and softmax speed up similarly.

The f32 bundle is cached on the model instance, keyed by a weights
fingerprint (the per-parameter sums), so repeated predict calls pay the
cast once per model version: fine-tuning or ``load_state_dict`` changes
the fingerprint and the next predict rebuilds the bundle automatically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import PredictionError, ShapeError
from repro.nn.layers import Dropout, Linear, ReLU, Sequential

__all__ = [
    "PRECISIONS",
    "DEFAULT_PRECISION",
    "SOFTMAX_FLOORS",
    "resolve_dtype",
    "softmax_floor",
    "InferenceWeights",
    "inference_weights",
    "weights_fingerprint",
    "invalidate_inference_cache",
]

#: Supported precision tiers, in decreasing arithmetic width.
PRECISIONS = ("f64", "f32")
DEFAULT_PRECISION = "f64"

_DTYPES = {"f64": np.float64, "f32": np.float32}

#: Dtype-aware logit floor for masked softmax entries. Mask bias pushes
#: masked scores to ~-1e9; exp() of those underflows through libm's
#: slow denormal path, and anything near the underflow edge turns into
#: denormals after the normalizing division, poisoning every downstream
#: multiply. The floor keeps exp fast and every derived value in the
#: normal range: float64 underflows below exp(-745) (min normal
#: ~2.2e-308), so -200 leaves ~1e-87 headroom; float32 underflows below
#: exp(-87.3) (min normal ~1.18e-38), so the floor must be much higher
#: — exp(-60) ≈ 8.8e-27 stays normal even after dividing by a
#: 200-node row sum. Either floor perturbs masked weights by < 1e-26,
#: orders of magnitude under the tier's rounding error.
SOFTMAX_FLOORS = {
    np.dtype(np.float64): -200.0,
    np.dtype(np.float32): -60.0,
}


def resolve_dtype(precision: str) -> np.dtype:
    """Execution dtype of a precision tier."""
    try:
        return np.dtype(_DTYPES[precision])
    except KeyError:
        raise PredictionError(
            f"unknown precision {precision!r}; expected one of {PRECISIONS}")


def softmax_floor(dtype) -> float:
    """Safe logit floor for masked softmax entries at ``dtype``."""
    floor = SOFTMAX_FLOORS.get(np.dtype(dtype))
    if floor is None:
        raise ShapeError(f"no softmax floor defined for dtype {dtype!r}")
    return floor


@dataclass
class InferenceWeights:
    """All arrays of one RAAL-family model, in one execution dtype.

    ``dense`` is a flat op list — ``("linear", w, b)`` / ``("relu",)``
    — mirroring the model's Sequential head with eval-mode Dropout
    already erased, so the execution kernels never touch Module objects.
    """

    precision: str
    dtype: np.dtype
    embedding_w: np.ndarray
    embedding_b: np.ndarray | None
    lstm: tuple[np.ndarray, np.ndarray, np.ndarray] | None   # w_x, w_h, bias
    cnn: tuple[np.ndarray, np.ndarray, int] | None           # weight, bias, kernel
    node_attention: tuple[np.ndarray, np.ndarray] | None     # w_query, w_key
    resource_attention: tuple[np.ndarray, np.ndarray] | None  # w_resource, w_key
    dense: list[tuple]
    latent_dim: int
    node_dim: int


def weights_fingerprint(model) -> tuple:
    """Cheap staleness token: the per-parameter sums, in discovery order.

    Any optimizer step or ``load_state_dict`` perturbs parameter sums
    (up to pathological cancellation), so comparing fingerprints costs
    ~tens of microseconds and catches every realistic weight change.
    ``invalidate_inference_cache`` exists for callers that mutate
    weights and want a hard guarantee.
    """
    return tuple(float(np.sum(p.data)) for p in model.parameters())


def invalidate_inference_cache(model) -> None:
    """Drop all cached per-precision weight bundles of ``model``."""
    if hasattr(model, "_inference_weights"):
        model._inference_weights.clear()


def inference_weights(model, precision: str = DEFAULT_PRECISION) -> InferenceWeights:
    """The model's weights as an execution bundle for one precision tier.

    ``f64`` bundles are rebuilt per call from the live parameter arrays
    (pure views, no copies — always current by construction). ``f32``
    bundles are cached on the model instance and revalidated against
    :func:`weights_fingerprint`.
    """
    dtype = resolve_dtype(precision)
    if precision == "f64":
        return _build_weights(model, precision, dtype)
    cache = getattr(model, "_inference_weights", None)
    if cache is None:
        cache = model._inference_weights = {}
    fingerprint = weights_fingerprint(model)
    hit = cache.get(precision)
    if hit is not None and hit[0] == fingerprint:
        return hit[1]
    weights = _build_weights(model, precision, dtype)
    cache[precision] = (fingerprint, weights)
    return weights


def _build_weights(model, precision: str, dtype: np.dtype) -> InferenceWeights:
    def cast(array: np.ndarray | None) -> np.ndarray | None:
        """A parameter in the execution dtype (a view at f64)."""
        if array is None:
            return None
        return np.asarray(array, dtype=dtype)

    config = model.config
    embedding_b = (model.embedding.bias.data
                   if model.embedding.bias is not None else None)

    lstm = cnn = None
    if model.plan_feature is not None:
        cell = model.plan_feature.cell
        lstm = (cast(cell.w_x.data), cast(cell.w_h.data),
                cast(cell.bias.data))
    else:
        cnn = (cast(model.cnn.weight.data), cast(model.cnn.bias.data),
               config.cnn_kernel)

    node_attention = resource_attention = None
    if model.node_attention is not None:
        node_attention = (
            cast(model.node_attention.w_query.data),
            cast(model.node_attention.w_key.data))
    if model.resource_attention is not None:
        resource_attention = (
            cast(model.resource_attention.w_resource.data),
            cast(model.resource_attention.w_key.data))

    dense: list[tuple] = []
    if not isinstance(model.dense, Sequential):
        raise ShapeError("model.dense must be a Sequential of Linear/ReLU/Dropout")
    for layer in model.dense:
        if isinstance(layer, Linear):
            dense.append(("linear", cast(layer.weight.data),
                          cast(layer.bias.data if layer.bias is not None else None)))
        elif isinstance(layer, ReLU):
            dense.append(("relu",))
        elif isinstance(layer, Dropout):
            pass  # identity at inference
        else:
            raise ShapeError(
                f"no inference kernel for dense layer {type(layer).__name__}")

    return InferenceWeights(
        precision=precision,
        dtype=dtype,
        embedding_w=cast(model.embedding.weight.data),
        embedding_b=cast(embedding_b),
        lstm=lstm,
        cnn=cnn,
        node_attention=node_attention,
        resource_attention=resource_attention,
        dense=dense,
        latent_dim=config.latent_dim,
        node_dim=config.node_dim,
    )
