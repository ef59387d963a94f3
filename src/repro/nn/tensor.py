"""Reverse-mode automatic differentiation on top of numpy.

This module implements the :class:`Tensor` class, a small but complete
autograd engine in the spirit of PyTorch. A ``Tensor`` wraps a numpy
array and records the operations applied to it; calling
:meth:`Tensor.backward` on a scalar result propagates gradients back to
every tensor created with ``requires_grad=True``.

The engine supports full numpy-style broadcasting. Gradients flowing
into a broadcast operand are reduced back to the operand's shape by
:func:`_unbroadcast`.

Example
-------
>>> from repro.nn.tensor import Tensor
>>> x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
>>> y = (x * x).sum()
>>> y.backward()
>>> x.grad.tolist()
[2.0, 4.0, 6.0]
"""

from __future__ import annotations

import threading
from typing import Iterable, Sequence

import numpy as np

from repro.errors import AutogradError, ShapeError

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

# Per-thread gradient mode: threads may run no_grad contexts
# concurrently, and a process-global flag would let one
# thread's __exit__ clobber another's (leaving gradients disabled for
# the whole process once the restores interleave). New threads start
# with gradients enabled.
_GRAD_STATE = threading.local()


class no_grad:
    """Context manager that disables gradient tracking.

    While active, all new tensors produced by operations *on this
    thread* are detached from the autograd graph, which makes inference
    cheaper. The mode is thread-local, so concurrent inference workers
    cannot corrupt each other's (or the training loop's) grad mode.

    >>> with no_grad():
    ...     z = x * 2  # z.requires_grad is False
    """

    def __enter__(self) -> "no_grad":
        self._previous = is_grad_enabled()
        _GRAD_STATE.enabled = False
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _GRAD_STATE.enabled = self._previous


def is_grad_enabled() -> bool:
    """Return whether gradient tracking is enabled on this thread."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape``, inverting numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading axes that were added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were expanded from size 1.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


def _as_array(data) -> np.ndarray:
    """Coerce ``data`` (scalar, sequence, ndarray, Tensor) to float64 ndarray."""
    if isinstance(data, Tensor):
        return data.data
    arr = np.asarray(data, dtype=np.float64)
    return arr


class Tensor:
    """A numpy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Scalar, nested sequence, or numpy array. Stored as ``float64``.
    requires_grad:
        If ``True``, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "_op")

    def __init__(self, data, requires_grad: bool = False) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward = None
        self._parents: tuple[Tensor, ...] = ()
        self._op = "leaf"

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Return a tensor of ones with the given shape."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @staticmethod
    def from_numpy(array: np.ndarray, requires_grad: bool = False) -> "Tensor":
        """Wrap a numpy array (copied to float64) as a tensor."""
        return Tensor(array, requires_grad=requires_grad)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return self.data.size

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes)."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor({self.data!r}{grad_flag})"

    def item(self) -> float:
        """Return the value of a single-element tensor as a Python float."""
        return float(self.data.item())

    def numpy(self) -> np.ndarray:
        """Return the underlying numpy array (no copy)."""
        return self.data

    def tolist(self):
        """Return the data as (nested) Python lists."""
        return self.data.tolist()

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but detached from the graph."""
        out = Tensor.__new__(Tensor)
        out.data = self.data
        out.requires_grad = False
        out.grad = None
        out._backward = None
        out._parents = ()
        out._op = "detach"
        return out

    # ------------------------------------------------------------------
    # Graph plumbing
    # ------------------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Sequence["Tensor"], op: str) -> "Tensor":
        """Create a result tensor wired into the autograd graph."""
        out = Tensor.__new__(Tensor)
        out.data = data
        out.grad = None
        out._backward = None
        out._op = op
        tracked = is_grad_enabled() and any(p.requires_grad for p in parents)
        out.requires_grad = tracked
        out._parents = tuple(parents) if tracked else ()
        return out

    def _accumulate(self, grad: np.ndarray) -> None:
        """Add ``grad`` into this tensor's ``.grad`` buffer."""
        if self.grad is None:
            self.grad = np.zeros_like(self.data)
        self.grad += grad

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to ``None``."""
        self.grad = None

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph.

        Parameters
        ----------
        grad:
            Gradient of the final objective w.r.t. this tensor. Defaults
            to ``1.0`` and then requires this tensor to be a scalar.
        """
        if not self.requires_grad:
            raise AutogradError("backward() called on a tensor that does not require grad")
        if grad is None:
            if self.data.size != 1:
                raise AutogradError(
                    f"backward() without an explicit gradient requires a scalar tensor, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        else:
            grad = np.asarray(grad, dtype=np.float64)
            if grad.shape != self.data.shape:
                raise ShapeError(
                    f"gradient shape {grad.shape} does not match tensor shape {self.shape}"
                )

        # Topological sort of the graph reachable from self.
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data + other.data, (self, other), "add")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad, other.data.shape))

            out._backward = _backward
        return out

    __radd__ = __add__

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data * other.data, (self, other), "mul")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                if self.requires_grad:
                    self._accumulate(_unbroadcast(grad * other.data, self.data.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(grad * self.data, other.data.shape))

            out._backward = _backward
        return out

    __rmul__ = __mul__

    def __neg__(self) -> "Tensor":
        return self * -1.0

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) + (-self)

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self * other ** -1.0

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) * self ** -1.0

    def __pow__(self, exponent: float) -> "Tensor":
        if isinstance(exponent, Tensor):
            raise AutogradError("tensor exponents are not supported; use exp/log")
        exponent = float(exponent)
        out = self._make(self.data ** exponent, (self,), "pow")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * exponent * self.data ** (exponent - 1.0))

            out._backward = _backward
        return out

    def __matmul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        out = self._make(self.data @ other.data, (self, other), "matmul")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                a, b = self.data, other.data
                if self.requires_grad:
                    if b.ndim == 1 and a.ndim == 1:
                        ga = grad * b
                    elif b.ndim == 1:
                        # (..., m, k) @ (k,) -> (..., m): d/da = grad[..., None] * b
                        ga = np.expand_dims(grad, -1) * b
                    else:
                        ga = grad @ np.swapaxes(b, -1, -2)
                    self._accumulate(_unbroadcast(np.asarray(ga), a.shape))
                if other.requires_grad:
                    if a.ndim == 1 and b.ndim == 1:
                        gb = grad * a
                    elif a.ndim == 1:
                        # (k,) @ (k, n) -> (n,): d/db = outer(a, grad)
                        gb = np.multiply.outer(a, grad)
                    elif b.ndim == 1:
                        # (..., m, k) @ (k,) -> (..., m): d/db = sum over batch of a^T grad
                        gb = (np.swapaxes(a, -1, -2) @ np.expand_dims(grad, -1)).squeeze(-1)
                    else:
                        gb = np.swapaxes(a, -1, -2) @ grad
                    other._accumulate(_unbroadcast(np.asarray(gb), b.shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Elementwise nonlinearities
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        """Elementwise exponential."""
        out = self._make(np.exp(self.data), (self,), "exp")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out.data)

            out._backward = _backward
        return out

    def log(self) -> "Tensor":
        """Elementwise natural logarithm."""
        out = self._make(np.log(self.data), (self,), "log")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad / self.data)

            out._backward = _backward
        return out

    def sigmoid(self) -> "Tensor":
        """Elementwise logistic sigmoid, computed stably."""
        # Clipping at |x| = 60 keeps exp() finite; sigmoid saturates to
        # within 1e-26 of 0/1 there, so the result is exact in float64.
        x = np.clip(self.data, -60.0, 60.0)
        s = 1.0 / (1.0 + np.exp(-x))
        out = self._make(s, (self,), "sigmoid")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * out.data * (1.0 - out.data))

            out._backward = _backward
        return out

    def tanh(self) -> "Tensor":
        """Elementwise hyperbolic tangent."""
        out = self._make(np.tanh(self.data), (self,), "tanh")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * (1.0 - out.data ** 2))

            out._backward = _backward
        return out

    def relu(self) -> "Tensor":
        """Elementwise rectified linear unit."""
        mask = self.data > 0
        out = self._make(self.data * mask, (self,), "relu")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            out._backward = _backward
        return out

    def sqrt(self) -> "Tensor":
        """Elementwise square root."""
        return self ** 0.5

    def abs(self) -> "Tensor":
        """Elementwise absolute value (subgradient 0 at 0)."""
        sign = np.sign(self.data)
        out = self._make(np.abs(self.data), (self,), "abs")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * sign)

            out._backward = _backward
        return out

    def clip(self, low: float, high: float) -> "Tensor":
        """Clamp values to ``[low, high]``; gradient is zero outside."""
        mask = (self.data >= low) & (self.data <= high)
        out = self._make(np.clip(self.data, low, high), (self,), "clip")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad * mask)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Sum of elements over the given axis (or all elements)."""
        out = self._make(self.data.sum(axis=axis, keepdims=keepdims), (self,), "sum")
        if out.requires_grad:
            in_shape = self.data.shape

            def _backward(grad: np.ndarray) -> None:
                g = grad
                if axis is not None and not keepdims:
                    axes = (axis,) if isinstance(axis, int) else axis
                    for ax in sorted(a % self.data.ndim for a in axes):
                        g = np.expand_dims(g, ax)
                self._accumulate(np.broadcast_to(g, in_shape).copy())

            out._backward = _backward
        return out

    def mean(self, axis: int | tuple[int, ...] | None = None, keepdims: bool = False) -> "Tensor":
        """Arithmetic mean over the given axis (or all elements)."""
        if axis is None:
            count = self.data.size
        else:
            axes = (axis,) if isinstance(axis, int) else axis
            count = 1
            for ax in axes:
                count *= self.data.shape[ax]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis: int | None = None, keepdims: bool = False) -> "Tensor":
        """Maximum over the given axis; gradient flows to (all) argmax cells."""
        out_data = self.data.max(axis=axis, keepdims=keepdims)
        out = self._make(out_data, (self,), "max")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                if axis is None:
                    mask = (self.data == out_data)
                    g = grad * mask / mask.sum()
                else:
                    expanded = self.data.max(axis=axis, keepdims=True)
                    mask = (self.data == expanded)
                    counts = mask.sum(axis=axis, keepdims=True)
                    g_exp = grad if keepdims else np.expand_dims(grad, axis)
                    g = g_exp * mask / counts
                self._accumulate(g)

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Shape manipulation
    # ------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        """Return a reshaped view of this tensor."""
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        out = self._make(self.data.reshape(shape), (self,), "reshape")
        if out.requires_grad:
            in_shape = self.data.shape

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(in_shape))

            out._backward = _backward
        return out

    def transpose(self, *axes: int) -> "Tensor":
        """Permute the axes (all reversed when none are given)."""
        axes_t = axes if axes else tuple(reversed(range(self.data.ndim)))
        if len(axes_t) == 1 and isinstance(axes_t[0], (tuple, list)):
            axes_t = tuple(axes_t[0])
        out = self._make(self.data.transpose(axes_t), (self,), "transpose")
        if out.requires_grad:
            inverse = np.argsort(axes_t)

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.transpose(inverse))

            out._backward = _backward
        return out

    def __getitem__(self, index) -> "Tensor":
        out = self._make(self.data[index], (self,), "getitem")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                full = np.zeros_like(self.data)
                np.add.at(full, index, grad)
                self._accumulate(full)

            out._backward = _backward
        return out

    def squeeze(self, axis: int | None = None) -> "Tensor":
        """Remove axes of length one."""
        out_data = self.data.squeeze() if axis is None else self.data.squeeze(axis)
        out = self._make(out_data, (self,), "squeeze")
        if out.requires_grad:
            in_shape = self.data.shape

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(in_shape))

            out._backward = _backward
        return out

    def expand_dims(self, axis: int) -> "Tensor":
        """Insert a new axis of length one at ``axis``."""
        out = self._make(np.expand_dims(self.data, axis), (self,), "expand_dims")
        if out.requires_grad:
            in_shape = self.data.shape

            def _backward(grad: np.ndarray) -> None:
                self._accumulate(grad.reshape(in_shape))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Joining
    # ------------------------------------------------------------------
    @staticmethod
    def concat(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Concatenate tensors along an existing axis."""
        tensors = list(tensors)
        if not tensors:
            raise ShapeError("concat() of an empty sequence")
        data = np.concatenate([t.data for t in tensors], axis=axis)
        proto = tensors[0]
        out = proto._make(data, tensors, "concat")
        if out.requires_grad:
            sizes = [t.data.shape[axis] for t in tensors]
            offsets = np.cumsum([0] + sizes)

            def _backward(grad: np.ndarray) -> None:
                for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                    if t.requires_grad:
                        slicer = [slice(None)] * grad.ndim
                        slicer[axis] = slice(start, stop)
                        t._accumulate(grad[tuple(slicer)])

            out._backward = _backward
        return out

    @staticmethod
    def stack(tensors: Iterable["Tensor"], axis: int = 0) -> "Tensor":
        """Stack tensors along a new axis."""
        tensors = list(tensors)
        if not tensors:
            raise ShapeError("stack() of an empty sequence")
        data = np.stack([t.data for t in tensors], axis=axis)
        proto = tensors[0]
        out = proto._make(data, tensors, "stack")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                parts = np.split(grad, len(tensors), axis=axis)
                for t, g in zip(tensors, parts):
                    if t.requires_grad:
                        t._accumulate(np.squeeze(g, axis=axis))

            out._backward = _backward
        return out

    # ------------------------------------------------------------------
    # Softmax (kept on Tensor because attention layers use it heavily)
    # ------------------------------------------------------------------
    def softmax(self, axis: int = -1) -> "Tensor":
        """Numerically stable softmax along ``axis``."""
        shifted = self.data - self.data.max(axis=axis, keepdims=True)
        exp = np.exp(shifted)
        sm = exp / exp.sum(axis=axis, keepdims=True)
        out = self._make(sm, (self,), "softmax")
        if out.requires_grad:

            def _backward(grad: np.ndarray) -> None:
                dot = (grad * sm).sum(axis=axis, keepdims=True)
                self._accumulate(sm * (grad - dot))

            out._backward = _backward
        return out
