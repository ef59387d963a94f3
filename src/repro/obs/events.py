"""Structured event log: one JSONL emitter for the whole pipeline.

Components emit typed events (``trainer/epoch``, ``guard/fallback``,
``guard/breaker_transition``, ``encoder/cache_evict``) as flat dicts.
Every event is kept in a bounded in-memory ring (for tests and the
run report) and, when a path is configured, appended to a JSONL file —
one JSON object per line, the append-only format log shippers expect.

A per-component bridge to the stdlib ``logging`` module is provided by
:meth:`EventLog.logger`: records logged through the returned logger are
converted into events, so library code that already speaks ``logging``
participates in the structured log without new dependencies.
"""

from __future__ import annotations

import io
import json
import logging
import threading
import time
from collections import Counter as _TallyCounter
from collections import deque
from typing import Callable

from repro.errors import TelemetryError

__all__ = ["EventLog", "EventLogHandler"]


def _jsonify(value: object) -> object:
    """Best-effort JSON coercion for numpy scalars and odd objects."""
    for cast in (float, str):
        try:
            return cast(value)  # numpy scalars support float(); rest -> str
        except (TypeError, ValueError):
            continue
    return repr(value)


class EventLog:
    """Bounded in-memory event ring with optional JSONL persistence.

    Parameters
    ----------
    path:
        When set, every event is appended to this file as one JSON
        line (flushed per event, so a crashed run keeps its tail).
    clock:
        Wall-clock source for the ``ts`` field; injectable for tests.
    capacity:
        In-memory ring size; the JSONL file is never truncated.
    """

    _RESERVED = ("ts", "component", "event")

    def __init__(self, path: str | None = None,
                 clock: Callable[[], float] = time.time,
                 capacity: int = 4096) -> None:
        if capacity < 1:
            raise TelemetryError(f"event capacity must be >= 1, got {capacity}")
        self.path = str(path) if path is not None else None
        self._clock = clock
        self._ring: deque[dict] = deque(maxlen=capacity)
        self._tally: _TallyCounter[str] = _TallyCounter()
        self._lock = threading.Lock()
        self._file: io.TextIOWrapper | None = None
        self._emitted = 0

    def emit(self, component: str, event: str, **fields: object) -> dict:
        """Record one structured event; returns the stored record."""
        clash = [k for k in fields if k in self._RESERVED]
        if clash:
            raise TelemetryError(
                f"event fields {clash} collide with reserved keys "
                f"{self._RESERVED}")
        record = {"ts": self._clock(), "component": component,
                  "event": event, **fields}
        # The ring stores the dict; serialize only for the JSONL file.
        line = (json.dumps(record, default=_jsonify, sort_keys=True)
                if self.path is not None else None)
        with self._lock:
            self._ring.append(record)
            self._tally[f"{component}.{event}"] += 1
            self._emitted += 1
            if line is not None:
                if self._file is None:
                    self._file = open(self.path, "a", encoding="utf-8")
                self._file.write(line + "\n")
                self._file.flush()
        return record

    def events(self, component: str | None = None,
               event: str | None = None) -> list[dict]:
        """Recent events, optionally filtered by component and/or type."""
        with self._lock:
            records = list(self._ring)
        if component is not None:
            records = [r for r in records if r["component"] == component]
        if event is not None:
            records = [r for r in records if r["event"] == event]
        return records

    def counts(self) -> dict[str, int]:
        """Cumulative ``component.event`` tallies (survive ring eviction)."""
        with self._lock:
            return dict(self._tally)

    @property
    def emitted(self) -> int:
        """Total events emitted over the log's lifetime."""
        return self._emitted

    # -- stdlib logging bridge --------------------------------------------
    def logger(self, component: str,
               level: int = logging.INFO) -> logging.Logger:
        """A stdlib logger whose records become events of ``component``.

        The logger is named ``repro.<component>``; repeated calls reuse
        the same logger and attach at most one bridge handler, so the
        bridge is idempotent.
        """
        log = logging.getLogger(f"repro.{component}")
        log.setLevel(min(log.level or level, level) if log.level else level)
        if not any(isinstance(h, EventLogHandler) and h.event_log is self
                   for h in log.handlers):
            log.addHandler(EventLogHandler(self, component, level=level))
        log.propagate = False
        return log

    def close(self) -> None:
        """Flush and close the JSONL file (the in-memory ring survives)."""
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None


class EventLogHandler(logging.Handler):
    """``logging`` handler that forwards records into an :class:`EventLog`."""

    def __init__(self, event_log: EventLog, component: str,
                 level: int = logging.INFO) -> None:
        super().__init__(level=level)
        self.event_log = event_log
        self.component = component

    def emit(self, record: logging.LogRecord) -> None:
        try:
            self.event_log.emit(
                self.component, "log",
                level=record.levelname.lower(),
                message=record.getMessage(),
            )
        except Exception:  # pragma: no cover - logging must never raise
            self.handleError(record)
