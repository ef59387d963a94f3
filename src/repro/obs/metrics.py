"""Metrics primitives: counters, gauges, histograms, and a registry.

Dependency-free (stdlib only) so the telemetry layer can be imported by
every subsystem — including ``nn`` and ``encoding`` hot paths — without
creating import cycles or pulling optional packages.

Metric names are dotted (``guard.raal.served``); the Prometheus export
rewrites the dots to underscores, since dots are illegal in Prometheus
metric names. Histograms use fixed log-scale latency buckets
(:data:`DEFAULT_LATENCY_BUCKETS`, half-decade steps from 10 µs to
~31.6 s) so latency distributions from different runs are always
bucket-compatible and can be merged or diffed.

Every mutation takes the owning metric's lock, so one registry can be
shared across the serving threads of a deployment.
"""

from __future__ import annotations

import json
import math
import re
import threading
from bisect import bisect_left

from repro.errors import TelemetryError

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "DRIFT_BUCKETS",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_from_snapshot",
    "quantile_from_snapshot",
    "render_snapshot",
]

#: Half-decade log-scale upper bounds: 1e-5, 3.16e-5, …, 31.6 seconds.
#: A terminal +Inf bucket is implicit in every histogram.
DEFAULT_LATENCY_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (k / 2.0), 12) for k in range(-10, 4))

#: Half-decade buckets for dimensionless ratios (relative drift of the
#: degraded precision tiers): 1e-5 … 10. The 5% accuracy budget falls
#: mid-range, so both in-budget and breaching samples resolve clearly.
DRIFT_BUCKETS: tuple[float, ...] = tuple(
    round(10.0 ** (k / 2.0), 12) for k in range(-10, 3))

_NAME_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_.]*$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name or ""):
        raise TelemetryError(
            f"invalid metric name {name!r}: must match {_NAME_RE.pattern}")
    return name


class Counter:
    """Monotonically increasing count (requests, cache hits, failures)."""

    kind = "counter"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def inc(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise TelemetryError(
                f"counter {self.name} cannot decrease (amount={amount})")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current cumulative count."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready state of the counter."""
        return {"kind": self.kind, "value": self._value, "help": self.help}


class Gauge:
    """Point-in-time value (cache size, current learning rate)."""

    kind = "gauge"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._value = 0.0
        self._lock = threading.Lock()

    def set(self, value: float) -> None:
        """Replace the gauge's value."""
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        """Adjust the gauge by ``amount`` (may be negative)."""
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        """Current value."""
        return self._value

    def snapshot(self) -> dict:
        """JSON-ready state of the gauge."""
        return {"kind": self.kind, "value": self._value, "help": self.help}


class Histogram:
    """Distribution over fixed upper-bound buckets (latencies, sizes).

    ``buckets`` are ascending finite upper bounds; an implicit +Inf
    bucket catches overflow, so ``observe`` never loses a sample.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "",
                 buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> None:
        self.name = _check_name(name)
        self.help = help
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise TelemetryError(f"histogram {name} needs at least one bucket")
        if list(bounds) != sorted(bounds) or len(set(bounds)) != len(bounds):
            raise TelemetryError(
                f"histogram {name} buckets must be strictly ascending: {bounds}")
        if not all(math.isfinite(b) for b in bounds):
            raise TelemetryError(
                f"histogram {name} buckets must be finite (+Inf is implicit)")
        self.buckets = bounds
        self._counts = [0] * (len(bounds) + 1)  # last slot = +Inf
        self._sum = 0.0
        self._count = 0
        self._min = math.inf
        self._max = -math.inf
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        """Record one sample; NaN samples are rejected."""
        value = float(value)
        if math.isnan(value):
            raise TelemetryError(f"histogram {self.name} rejects NaN samples")
        # First bound >= value; len(buckets) is the +Inf slot.
        idx = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[idx] += 1
            self._sum += value
            self._count += 1
            self._min = min(self._min, value)
            self._max = max(self._max, value)

    @property
    def count(self) -> int:
        """Total number of samples observed."""
        return self._count

    @property
    def sum(self) -> float:
        """Sum of all observed samples."""
        return self._sum

    @property
    def mean(self) -> float:
        """Mean of the observed samples (0.0 before any sample)."""
        return self._sum / self._count if self._count else 0.0

    def quantile(self, q: float) -> float:
        """Estimated ``q``-quantile (Prometheus-style interpolation).

        Locates the bucket holding the ``q``-th sample and interpolates
        linearly inside it, clamped to the observed ``[min, max]`` so
        coarse buckets cannot report values outside the data (and the
        +Inf overflow bucket degrades to the observed max). Estimation
        error is bounded by the bucket width; the latency harness
        additionally reports exact percentiles from raw samples.

        Raises :class:`ValueError` for ``q`` outside ``[0, 1]``; an
        empty histogram reports ``nan`` (well-defined, propagates
        visibly through downstream arithmetic) rather than raising.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q}")
        with self._lock:
            return _quantile_locked(q, self.buckets, self._counts,
                                    self._count, self._min, self._max)

    def snapshot(self) -> dict:
        """JSON-ready state: bounds, per-bucket counts, and summary stats."""
        with self._lock:
            return {
                "kind": self.kind,
                "help": self.help,
                "buckets": list(self.buckets),
                "counts": list(self._counts),
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }


def _quantile_locked(q: float, buckets: tuple[float, ...], counts: list[int],
                     total: int, minimum: float, maximum: float) -> float:
    if not total:
        return math.nan
    rank = q * total
    cumulative = 0
    for i, n in enumerate(counts):
        if not n:
            continue
        if cumulative + n >= rank:
            if i == len(buckets):
                # Overflow bucket: no finite upper bound to
                # interpolate against — report the observed max.
                return maximum
            lo = 0.0 if i == 0 else buckets[i - 1]
            fraction = (rank - cumulative) / n
            value = lo + (buckets[i] - lo) * fraction
            return min(max(value, minimum), maximum)
        cumulative += n
    return maximum


def quantile_from_snapshot(state: dict, q: float) -> float:
    """:meth:`Histogram.quantile` over a persisted snapshot dict.

    Lets ``repro top`` compute p50/p95/p99 from a telemetry report
    written by an earlier process, without live metric objects. Same
    semantics as the live method: :class:`ValueError` for ``q`` outside
    ``[0, 1]``, ``nan`` when the snapshot holds no samples.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    count = int(state.get("count") or 0)
    if not count:
        return math.nan
    minimum = state.get("min")
    maximum = state.get("max")
    return _quantile_locked(
        q, tuple(state["buckets"]), list(state["counts"]), count,
        minimum if minimum is not None else -math.inf,
        maximum if maximum is not None else math.inf)


_METRIC_TYPES = {"counter": Counter, "gauge": Gauge, "histogram": Histogram}


class MetricsRegistry:
    """Named, typed collection of metrics with get-or-create semantics.

    Asking twice for the same name returns the same metric object;
    asking for an existing name with a different kind raises
    :class:`~repro.errors.TelemetryError` (silent type confusion would
    corrupt exports).
    """

    def __init__(self) -> None:
        self._metrics: dict[str, Counter | Gauge | Histogram] = {}
        self._lock = threading.Lock()

    def _get_or_create(self, cls, name: str, help: str, **kwargs):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help, **kwargs)
                self._metrics[name] = metric
            elif not isinstance(metric, cls):
                raise TelemetryError(
                    f"metric {name!r} already registered as {metric.kind}, "
                    f"requested {cls.kind}")
            return metric

    def counter(self, name: str, help: str = "") -> Counter:
        """Get or create the counter ``name``."""
        return self._get_or_create(Counter, name, help)

    def gauge(self, name: str, help: str = "") -> Gauge:
        """Get or create the gauge ``name``."""
        return self._get_or_create(Gauge, name, help)

    def histogram(self, name: str, help: str = "",
                  buckets: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS) -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, help, buckets=buckets)

    def get(self, name: str):
        """The metric registered under ``name``, or ``None``."""
        return self._metrics.get(name)

    def names(self) -> list[str]:
        """Sorted names of all registered metrics."""
        return sorted(self._metrics)

    def __contains__(self, name: str) -> bool:
        return name in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def snapshot(self) -> dict[str, dict]:
        """Point-in-time JSON-ready state of every metric, by name."""
        with self._lock:
            metrics = list(self._metrics.items())
        return {name: metric.snapshot() for name, metric in sorted(metrics)}

    def to_json(self, indent: int | None = 2) -> str:
        """The snapshot as a JSON document."""
        return json.dumps({"metrics": self.snapshot()}, indent=indent,
                          sort_keys=True)

    def to_prometheus(self) -> str:
        """The snapshot in the Prometheus text exposition format."""
        return prometheus_from_snapshot(self.snapshot())


def _prom_name(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9_]", "_", name)


def _prom_num(value: float) -> str:
    if value == math.inf:
        return "+Inf"
    return format(value, "g")


def _prom_help(text: str) -> str:
    # The exposition format requires backslash and newline escapes in
    # HELP text; anything else passes through verbatim.
    return text.replace("\\", "\\\\").replace("\n", "\\n")


def prometheus_from_snapshot(snapshot: dict[str, dict]) -> str:
    """Render a registry snapshot (or a persisted one) as Prometheus text.

    Works on plain dicts so ``repro metrics`` can export run artifacts
    written by an earlier process, without reconstructing live metrics.
    Counters are rendered under the conventional ``_total`` suffix
    (added unless the name already carries it).
    """
    lines: list[str] = []
    for name in sorted(snapshot):
        state = snapshot[name]
        prom = _prom_name(name)
        kind = state.get("kind", "gauge")
        if kind == "counter" and not prom.endswith("_total"):
            prom += "_total"
        if state.get("help"):
            lines.append(f"# HELP {prom} {_prom_help(state['help'])}")
        lines.append(f"# TYPE {prom} {kind}")
        if kind == "histogram":
            cumulative = 0
            bounds = [*state["buckets"], math.inf]
            for bound, count in zip(bounds, state["counts"]):
                cumulative += count
                lines.append(
                    f'{prom}_bucket{{le="{_prom_num(bound)}"}} {cumulative}')
            lines.append(f"{prom}_sum {_prom_num(state['sum'])}")
            lines.append(f"{prom}_count {state['count']}")
        else:
            lines.append(f"{prom} {_prom_num(state['value'])}")
    return "\n".join(lines) + ("\n" if lines else "")


def render_snapshot(snapshot: dict[str, dict]) -> list[list[str]]:
    """Snapshot as ``[name, kind, value]`` rows for table rendering."""
    rows: list[list[str]] = []
    for name in sorted(snapshot):
        state = snapshot[name]
        kind = state.get("kind", "gauge")
        if kind == "histogram":
            mean = state["sum"] / state["count"] if state["count"] else 0.0
            value = (f"count={state['count']} mean={mean:.6g} "
                     f"max={state['max'] if state['max'] is not None else '-'}")
        else:
            value = format(state["value"], "g")
        rows.append([name, kind, value])
    return rows
