"""Lightweight tracing: nested spans with an injectable clock.

A :class:`Span` is one timed stage of a request (``encode``,
``forward``, ``guarded_predict``). Spans nest: entering a span while
another is active on the same thread makes it a child, so a single
``CostPredictor.predict`` call yields one root span whose children are
the encode and forward stages, each with its own wall time and
annotations (cache hits, batch sizes, fallback sources).

The clock is injectable (as everywhere in this codebase's reliability
and telemetry layers) so tests assert exact durations without sleeping.
The span stack is thread-local; work handed to another thread nests
under the caller's open span through :meth:`Tracer.adopt`. Finished
root spans are kept in a bounded ring so a long-lived server cannot
leak memory through its tracer.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Callable, Iterator

__all__ = ["Span", "Tracer"]


class Span:
    """One timed, annotated stage of a request, with child spans."""

    __slots__ = ("name", "start", "end", "children", "annotations")

    def __init__(self, name: str, start: float) -> None:
        self.name = name
        self.start = start
        self.end: float | None = None
        self.children: list[Span] = []
        self.annotations: dict[str, object] = {}

    @property
    def duration(self) -> float | None:
        """Wall-clock seconds, or ``None`` while the span is active."""
        if self.end is None:
            return None
        return self.end - self.start

    def annotate(self, **fields: object) -> "Span":
        """Attach key/value context to the span; returns ``self``."""
        self.annotations.update(fields)
        return self

    def find(self, name: str) -> "Span | None":
        """First descendant (depth-first) named ``name``, or ``None``."""
        for child in self.children:
            if child.name == name:
                return child
            found = child.find(name)
            if found is not None:
                return found
        return None

    def to_dict(self) -> dict:
        """JSON-ready recursive representation of the span tree."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "annotations": dict(self.annotations),
            "children": [child.to_dict() for child in self.children],
        }

    def render(self, indent: int = 0) -> str:
        """Human-readable indented tree with durations."""
        duration = "active" if self.duration is None else f"{self.duration:.6f}s"
        notes = ""
        if self.annotations:
            pairs = ", ".join(f"{k}={v}" for k, v in self.annotations.items())
            notes = f"  [{pairs}]"
        lines = [f"{'  ' * indent}{self.name}: {duration}{notes}"]
        lines.extend(child.render(indent + 1) for child in self.children)
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Span({self.name!r}, duration={self.duration})"


class Tracer:
    """Creates spans and collects finished root span trees.

    Parameters
    ----------
    clock:
        Monotonic time source; injected by tests.
    max_roots:
        Ring capacity for finished root spans. Old trees are dropped
        first — the tracer is a window onto recent requests, not an
        unbounded archive.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_roots: int = 256) -> None:
        self._clock = clock
        self._local = threading.local()
        self._roots: deque[Span] = deque(maxlen=max_roots)
        self._lock = threading.Lock()
        self._finished = 0

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def current(self) -> Span | None:
        """The innermost active span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    @property
    def finished_count(self) -> int:
        """Total root spans completed (including ones evicted from the ring)."""
        return self._finished

    @contextmanager
    def span(self, name: str, **annotations: object) -> Iterator[Span]:
        """Open a span; nests under the thread's active span if present.

        An exception inside the span is annotated (``error=<repr>``)
        and re-raised, so failed stages stay visible in the trace.
        """
        span = Span(name, self._clock())
        if annotations:
            span.annotations.update(annotations)
        stack = self._stack()
        parent = stack[-1] if stack else None
        if parent is not None:
            parent.children.append(span)
        stack.append(span)
        try:
            yield span
        except BaseException as exc:
            span.annotations.setdefault("error", repr(exc))
            raise
        finally:
            span.end = self._clock()
            stack.pop()
            if parent is None:
                with self._lock:
                    self._roots.append(span)
                    self._finished += 1

    @contextmanager
    def adopt(self, parent: Span) -> Iterator[None]:
        """Nest this thread's new spans under ``parent``.

        ``parent`` is another thread's open span; the scope neither
        ends it nor records it as a root.
        """
        stack = self._stack()
        stack.append(parent)
        try:
            yield
        finally:
            stack.pop()

    def roots(self) -> list[Span]:
        """Finished root spans, oldest first."""
        with self._lock:
            return list(self._roots)

    def last_root(self) -> Span | None:
        """The most recently finished root span, or ``None``."""
        with self._lock:
            return self._roots[-1] if self._roots else None

    def clear(self) -> None:
        """Drop all finished root spans (active spans are untouched)."""
        with self._lock:
            self._roots.clear()
