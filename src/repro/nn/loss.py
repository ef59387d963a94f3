"""The regression loss RAAL trains with."""

from __future__ import annotations

from repro.errors import ShapeError
from repro.nn.tensor import Tensor

__all__ = ["mse_loss"]


def mse_loss(pred: Tensor, target: Tensor) -> Tensor:
    """Mean squared error — the paper's training loss (Sec. IV-D)."""
    if pred.shape != target.shape:
        raise ShapeError(f"prediction shape {pred.shape} != target shape {target.shape}")
    diff = pred - target
    return (diff * diff).mean()
