"""Weight initialization schemes for the numpy NN framework.

All initializers take an explicit :class:`numpy.random.Generator` so
that model construction is fully deterministic given a seed.
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn.tensor import Tensor

__all__ = ["xavier_uniform", "xavier_normal", "kaiming_uniform", "orthogonal", "zeros"]


def xavier_uniform(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    """Glorot/Xavier uniform initialization ``U(-a, a)``.

    ``a = gain * sqrt(6 / (fan_in + fan_out))``; used for tanh/sigmoid
    layers such as the LSTM gates and attention projections.
    """
    fan_in, fan_out = _fans(shape)
    bound = gain * math.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def xavier_normal(shape: tuple[int, ...], rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    """Glorot/Xavier normal initialization ``N(0, std^2)``."""
    fan_in, fan_out = _fans(shape)
    std = gain * math.sqrt(2.0 / (fan_in + fan_out))
    return Tensor(rng.normal(0.0, std, size=shape), requires_grad=True)


def kaiming_uniform(shape: tuple[int, ...], rng: np.random.Generator) -> Tensor:
    """He/Kaiming uniform initialization for ReLU layers."""
    fan_in, _ = _fans(shape)
    bound = math.sqrt(6.0 / fan_in)
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def orthogonal(shape: tuple[int, int], rng: np.random.Generator, gain: float = 1.0) -> Tensor:
    """Orthogonal initialization (used for recurrent weight matrices)."""
    rows, cols = shape
    flat = rng.normal(0.0, 1.0, size=(max(rows, cols), min(rows, cols)))
    q, r = np.linalg.qr(flat)
    q *= np.sign(np.diag(r))
    if rows < cols:
        q = q.T
    return Tensor(np.ascontiguousarray(gain * q[:rows, :cols]), requires_grad=True)


def zeros(shape: tuple[int, ...]) -> Tensor:
    """All-zeros parameter (typical for biases)."""
    return Tensor(np.zeros(shape), requires_grad=True)


def _fans(shape: tuple[int, ...]) -> tuple[int, int]:
    """Compute (fan_in, fan_out) for a weight shape."""
    if len(shape) == 1:
        return shape[0], shape[0]
    if len(shape) == 2:
        return shape[0], shape[1]
    receptive = int(np.prod(shape[2:]))
    return shape[1] * receptive, shape[0] * receptive
