"""Telemetry runtime: the attach point and zero-cost instrumentation API.

Instrumented code never holds a registry or tracer directly — it calls
the module-level helpers (:func:`span`, :func:`inc`, :func:`observe`,
:func:`set_gauge`, :func:`emit_event`), which consult the process-wide
active :class:`Telemetry`. When none is attached (the default) every
helper is a single global read plus a ``None`` check, and :func:`span`
returns a shared no-op span — telemetry costs nothing unless someone
asks for it.

Attach a telemetry bundle for a scope::

    tel = Telemetry.create(events_path="run.jsonl")
    with attached(tel):
        predictor.predict(plan, resources)
    print(tel.registry.to_prometheus())

or process-wide with :func:`attach` / :func:`detach` (the CLI's
``--emit-telemetry`` flag and the test-suite conftest do this).
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from contextlib import contextmanager
from typing import Callable, Iterator

from repro.obs.events import EventLog
from repro.obs.metrics import MetricsRegistry
from repro.obs.tracing import Span, Tracer

__all__ = [
    "Telemetry",
    "attach",
    "detach",
    "attached",
    "active",
    "enabled",
    "span",
    "inc",
    "observe",
    "set_gauge",
    "emit_event",
    "install_from_env",
    "NULL_SPAN",
    "TELEMETRY_ENV_VAR",
]

#: Environment variable consulted by :func:`install_from_env` (used by
#: the CI telemetry job and ad-hoc debugging of the test suite).
TELEMETRY_ENV_VAR = "REPRO_TELEMETRY_PATH"


@dataclass
class Telemetry:
    """One run's observability bundle: metrics + traces + events.

    The three pieces share a monotonic clock (injectable) so span
    durations, epoch timings, and latency histograms are mutually
    consistent in tests driven by a fake clock.
    """

    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(default_factory=Tracer)
    events: EventLog = field(default_factory=EventLog)
    clock: Callable[[], float] = time.perf_counter

    @classmethod
    def create(cls, events_path: str | None = None,
               clock: Callable[[], float] = time.perf_counter,
               wall_clock: Callable[[], float] = time.time,
               max_roots: int = 256,
               event_capacity: int = 4096) -> "Telemetry":
        """Build a bundle with a shared clock and optional JSONL sink."""
        return cls(
            registry=MetricsRegistry(),
            tracer=Tracer(clock=clock, max_roots=max_roots),
            events=EventLog(path=events_path, clock=wall_clock,
                            capacity=event_capacity),
            clock=clock,
        )

    def close(self) -> None:
        """Flush and close the event sink."""
        self.events.close()


class _NullSpan:
    """Shared do-nothing span returned while telemetry is detached."""

    __slots__ = ()
    name = "null"
    children: list = []
    annotations: dict = {}
    duration = None

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info: object) -> bool:
        return False

    def annotate(self, **fields: object) -> "_NullSpan":
        return self

    def find(self, name: str) -> None:
        return None


NULL_SPAN = _NullSpan()

_ACTIVE: Telemetry | None = None


def attach(telemetry: Telemetry) -> Telemetry:
    """Make ``telemetry`` the process-wide active bundle; returns it."""
    global _ACTIVE
    _ACTIVE = telemetry
    return telemetry


def detach() -> Telemetry | None:
    """Deactivate telemetry; returns the bundle that was active."""
    global _ACTIVE
    previous, _ACTIVE = _ACTIVE, None
    return previous


def active() -> Telemetry | None:
    """The currently attached bundle, or ``None``."""
    return _ACTIVE


def enabled() -> bool:
    """Whether any telemetry bundle is attached."""
    return _ACTIVE is not None


@contextmanager
def attached(telemetry: Telemetry) -> Iterator[Telemetry]:
    """Attach ``telemetry`` for a scope, restoring the previous bundle."""
    global _ACTIVE
    previous = _ACTIVE
    _ACTIVE = telemetry
    try:
        yield telemetry
    finally:
        _ACTIVE = previous


# -- instrumentation helpers (no-ops when detached) -----------------------
def span(name: str, **annotations: object):
    """Open a (possibly nested) span, or a shared no-op when detached."""
    tel = _ACTIVE
    if tel is None:
        return NULL_SPAN
    return tel.tracer.span(name, **annotations)


def bind(fn: Callable):
    """``fn``, nesting its spans under the calling thread's open span.

    For work handed to another thread, whose spans would otherwise
    become separate roots. Returns ``fn`` itself when detached or when
    no span is open.
    """
    tel = _ACTIVE
    parent = tel.tracer.current if tel is not None else None
    if parent is None:
        return fn

    def bound(*args, **kwargs):
        with tel.tracer.adopt(parent):
            return fn(*args, **kwargs)

    return bound


def inc(name: str, amount: float = 1.0, help: str = "") -> None:
    """Increment counter ``name`` on the active registry, if any."""
    tel = _ACTIVE
    if tel is not None:
        tel.registry.counter(name, help=help).inc(amount)


def observe(name: str, value: float, help: str = "") -> None:
    """Record a histogram sample on the active registry, if any."""
    tel = _ACTIVE
    if tel is not None:
        tel.registry.histogram(name, help=help).observe(value)


def set_gauge(name: str, value: float, help: str = "") -> None:
    """Set gauge ``name`` on the active registry, if any."""
    tel = _ACTIVE
    if tel is not None:
        tel.registry.gauge(name, help=help).set(value)


def emit_event(component: str, event: str, **fields: object) -> None:
    """Emit a structured event on the active log, if any."""
    tel = _ACTIVE
    if tel is not None:
        tel.events.emit(component, event, **fields)


def install_from_env(environ: dict[str, str] | None = None) -> Telemetry | None:
    """Attach a telemetry bundle when :data:`TELEMETRY_ENV_VAR` is set.

    Returns the attached bundle (or ``None``). The caller owns the
    bundle's lifecycle — the test-suite conftest finalizes it with a
    ``telemetry_report`` event at session end.
    """
    env = os.environ if environ is None else environ
    path = env.get(TELEMETRY_ENV_VAR)
    if not path:
        return None
    return attach(Telemetry.create(events_path=path))
