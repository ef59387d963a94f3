"""Per-thread scratch arenas for the batched inference path.

The bucketed predict loop pads every batch into fresh arrays — node
features, child mask, node mask, resources, extras — and throws them
away after one forward, on every serving thread and every executor
pool worker. :class:`ScratchArena` applies
the rotating-buffer pattern the analytic LSTM backward uses
(:mod:`repro.nn.training`) to collation: one grow-only flat buffer per
(key, dtype), re-sliced and re-shaped per batch, so a steady-state
request stream performs no collation allocations at all.

Arenas are deliberately *not* thread-safe — each thread gets its own
via :func:`thread_local_arena` — and views handed out by an
arena are only valid until the same thread's next request for the same
key, which matches the collate → forward → discard lifecycle exactly.
"""

from __future__ import annotations

import threading

import numpy as np

__all__ = ["ScratchArena", "thread_local_arena"]


class ScratchArena:
    """Grow-only reusable buffers, keyed by purpose string."""

    def __init__(self) -> None:
        self._buffers: dict[tuple[str, np.dtype], np.ndarray] = {}
        #: Total bytes currently held (observability, tests).
        self.allocated_bytes = 0

    def _flat(self, key: str, size: int, dtype) -> np.ndarray:
        dtype = np.dtype(dtype)
        buf = self._buffers.get((key, dtype))
        if buf is None or buf.size < size:
            # Geometric growth bounds the number of re-allocations a
            # warming-up workload performs per key.
            capacity = max(size, 2 * (buf.size if buf is not None else 0))
            if buf is not None:
                self.allocated_bytes -= buf.nbytes
            buf = np.empty(capacity, dtype=dtype)
            self._buffers[(key, dtype)] = buf
            self.allocated_bytes += buf.nbytes
        return buf[:size]

    def empty(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """An uninitialized ``shape`` view of the ``key`` buffer."""
        size = int(np.prod(shape)) if shape else 1
        return self._flat(key, size, dtype).reshape(shape)

    def zeros(self, key: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        """A zero-filled ``shape`` view of the ``key`` buffer."""
        out = self.empty(key, shape, dtype)
        out.fill(0)
        return out


_LOCAL = threading.local()


def thread_local_arena() -> ScratchArena:
    """The calling thread's private arena (created on first use)."""
    arena = getattr(_LOCAL, "arena", None)
    if arena is None:
        arena = _LOCAL.arena = ScratchArena()
    return arena
