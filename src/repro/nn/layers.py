"""Neural network layers (modules) built on :class:`repro.nn.tensor.Tensor`.

The :class:`Module` base class provides parameter discovery, train/eval
mode switching, and state-dict (de)serialization — enough surface to
express every network in the paper (RAAL, its ablations, TLSTM, RAAC).
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.errors import ShapeError
from repro.nn import init
from repro.nn.tensor import Tensor

__all__ = ["Module", "Linear", "Sequential", "ReLU", "Dropout", "Conv1d"]


class Module:
    """Base class for all layers and models.

    Subclasses register parameters by assigning :class:`Tensor` objects
    (with ``requires_grad=True``) or other :class:`Module` instances as
    attributes; :meth:`parameters` then discovers them recursively.
    """

    def __init__(self) -> None:
        self.training = True

    # -- parameter discovery -------------------------------------------
    def parameters(self) -> list[Tensor]:
        """Return all trainable tensors of this module and submodules."""
        return [tensor for _, tensor in self.named_parameters()]

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Tensor]]:
        """Yield ``(name, tensor)`` pairs for all trainable parameters."""
        for name, value in vars(self).items():
            if name.startswith("_"):
                continue
            full = f"{prefix}{name}"
            if isinstance(value, Tensor) and value.requires_grad:
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(prefix=f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(prefix=f"{full}.{i}.")
                    elif isinstance(item, Tensor) and item.requires_grad:
                        yield f"{full}.{i}", item

    def num_parameters(self) -> int:
        """Total number of trainable scalar parameters."""
        return sum(p.size for p in self.parameters())

    def zero_grad(self) -> None:
        """Reset gradients of all parameters."""
        for p in self.parameters():
            p.zero_grad()

    # -- train/eval ------------------------------------------------------
    def train(self) -> "Module":
        """Put the module (recursively) into training mode."""
        self._set_mode(True)
        return self

    def eval(self) -> "Module":
        """Put the module (recursively) into evaluation mode."""
        self._set_mode(False)
        return self

    def _set_mode(self, training: bool) -> None:
        self.training = training
        for value in vars(self).values():
            if isinstance(value, Module):
                value._set_mode(training)
            elif isinstance(value, (list, tuple)):
                for item in value:
                    if isinstance(item, Module):
                        item._set_mode(training)

    # -- serialization -----------------------------------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        """Return a name → array snapshot of all parameters (copies)."""
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load parameter values from :meth:`state_dict` output."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise ShapeError(
                f"state dict mismatch: missing={sorted(missing)} unexpected={sorted(unexpected)}"
            )
        for name, value in state.items():
            param = own[name]
            value = np.asarray(value, dtype=np.float64)
            if param.data.shape != value.shape:
                raise ShapeError(
                    f"parameter {name!r}: shape {value.shape} does not match {param.data.shape}"
                )
            param.data[...] = value

    # -- call protocol -------------------------------------------------------
    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


class Linear(Module):
    """Affine layer ``y = x W + b`` (weights shaped ``(in, out)``)."""

    def __init__(self, in_features: int, out_features: int, rng: np.random.Generator, bias: bool = True) -> None:
        super().__init__()
        self.in_features = in_features
        self.out_features = out_features
        self.weight = init.xavier_uniform((in_features, out_features), rng)
        self.bias = init.zeros((out_features,)) if bias else None

    def forward(self, x: Tensor) -> Tensor:
        out = x @ self.weight
        if self.bias is not None:
            out = out + self.bias
        return out


class ReLU(Module):
    """Elementwise ReLU activation as a module."""

    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class Sequential(Module):
    """Chain of modules applied in order."""

    def __init__(self, *modules: Module) -> None:
        super().__init__()
        self.layers = list(modules)

    def forward(self, x: Tensor) -> Tensor:
        for layer in self.layers:
            x = layer(x)
        return x

    def __iter__(self):
        return iter(self.layers)

    def __len__(self) -> int:
        return len(self.layers)


class Dropout(Module):
    """Inverted dropout; identity in eval mode.

    A module-owned generator keeps dropout deterministic per model seed
    while remaining independent of data-order randomness.
    """

    def __init__(self, p: float, rng: np.random.Generator) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ShapeError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = rng

    def forward(self, x: Tensor) -> Tensor:
        if not self.training or self.p == 0.0:
            return x
        keep = 1.0 - self.p
        mask = (self._rng.random(x.shape) < keep) / keep
        return x * Tensor(mask)


class Conv1d(Module):
    """Parameters of a 1-D convolution over a sequence (im2col layout).

    ``weight`` is ``(kernel_size * in_channels, out_channels)``: one
    row per (tap, channel) of a window, stride 1. Used by the RAAC
    ablation, which replaces the LSTM plan-feature layer with a CNN;
    its forward is :func:`repro.nn.inference.cnn_forward`.
    """

    def __init__(self, in_channels: int, out_channels: int, kernel_size: int, rng: np.random.Generator) -> None:
        super().__init__()
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.weight = init.kaiming_uniform((kernel_size * in_channels, out_channels), rng)
        self.bias = init.zeros((out_channels,))
