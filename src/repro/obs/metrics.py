"""Metrics primitives: counters, gauges, histograms, and a registry.

Dependency-free (stdlib only) so the telemetry layer can be imported by
every subsystem — including ``nn`` and ``encoding`` hot paths — without
creating import cycles or pulling optional packages.

Metric names are dotted (``guard.raal.served``); the Prometheus export
rewrites the dots to underscores, since dots are illegal in Prometheus
metric names. Every distribution (latencies, q-errors, drift ratios,
batch sizes) is a :class:`Histogram`, a log-bucket sketch whose
quantiles are within :data:`RELATIVE_ACCURACY` (1 %) of exact; this
module is the only place that knows how a distribution is summarised.

Every mutation takes the owning metric's lock, so one registry can be
shared across the serving threads of a deployment.
"""

from __future__ import annotations

import json
import math
import re
import threading

from repro.errors import TelemetryError

__all__ = [
    "RELATIVE_ACCURACY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_from_snapshot",
    "quantile_from_snapshot",
    "render_snapshot",
]

#: Relative accuracy α of every histogram quantile: the estimate is
#: within α·x of the exact nearest-rank sample x.
RELATIVE_ACCURACY = 0.01

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
    """Distribution as a log-bucket sketch (DDSketch, Masson et al. 2019).

    A positive finite sample ``v`` counts under key ``ceil(log_γ v)``,
    ``γ = (1+α)/(1−α)`` with ``α =`` :data:`RELATIVE_ACCURACY`;
    non-positive samples share one zero bucket and ``+inf`` samples hold
    no key. Keys depend only on ``α``, so histograms merge key by key.
    """

    kind = "histogram"

    def __init__(self, name: str, help: str = "") -> None:
        self.name = _check_name(name)
        self.help = help
        self._counts: dict[int, int] = {}
        self._zero = 0
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
        key = (math.ceil(math.log(value) / _LOG_GAMMA)
               if 0.0 < value < math.inf else None)
        with self._lock:
            if key is not None:
                self._counts[key] = self._counts.get(key, 0) + 1
            elif value <= 0.0:
                self._zero += 1
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
        """The ``q``-quantile, within ``α·x`` of the exact answer ``x``.

        ``x`` is the nearest-rank sample ``x_(⌊q·(n−1)⌋)`` (numpy's
        ``method="lower"``); the bound holds for positive normal floats,
        up to float rounding below ``1e-12·x``. The estimate is the
        bucket's ``2γ^k/(γ+1)`` (0 for the zero bucket, ``+inf`` past
        every key), clamped to the observed ``[min, max]``.

        Raises :class:`ValueError` for ``q`` outside ``[0, 1]``; an
        empty histogram reports ``nan`` (well-defined, propagates
        visibly through downstream arithmetic) rather than raising.
        """
        with self._lock:
            return _quantile(q, self._zero, sorted(self._counts.items()),
                             self._count, self._min, self._max)

    def snapshot(self) -> dict:
        """JSON-ready state: zero count, per-key counts, summary stats."""
        with self._lock:
            return {
                "kind": self.kind,
                "help": self.help,
                "relative_accuracy": RELATIVE_ACCURACY,
                "zero": self._zero,
                "counts": {str(k): n for k, n in sorted(self._counts.items())},
                "count": self._count,
                "sum": self._sum,
                "min": self._min if self._count else None,
                "max": self._max if self._count else None,
            }


_GAMMA = (1.0 + RELATIVE_ACCURACY) / (1.0 - RELATIVE_ACCURACY)
_LOG_GAMMA = math.log(_GAMMA)


def _quantile(q: float, zero: int, counts: list[tuple[int, int]],
              total: int, minimum: float, maximum: float) -> float:
    if not 0.0 <= q <= 1.0:
        raise ValueError(f"quantile must be in [0, 1], got {q}")
    if not total:
        return math.nan
    rank = math.floor(q * (total - 1))
    value = 0.0
    seen = zero
    if rank >= seen:
        value = maximum  # ranked past every key: a +inf sample
        for key, n in counts:
            seen += n
            if rank < seen:
                # 2γ^k/(γ+1); γ^(k−1) < the sample, so the power can't overflow
                value = _GAMMA ** (key - 1) * (2.0 * _GAMMA / (_GAMMA + 1.0))
                break
    return min(max(value, minimum), maximum)


def _sketch_counts(state: dict) -> list[tuple[int, int]]:
    """A persisted histogram's ``(key, count)`` pairs, ascending."""
    if state.get("relative_accuracy") != RELATIVE_ACCURACY:
        raise TelemetryError(
            "histogram snapshot was not written by this sketch "
            f"(relative_accuracy {RELATIVE_ACCURACY}); re-run to regenerate it")
    return sorted((int(k), n) for k, n in state["counts"].items())


def quantile_from_snapshot(state: dict, q: float) -> float:
    """:meth:`Histogram.quantile` over a persisted snapshot dict.

    Lets ``repro top`` compute p50/p95/p99 from a telemetry report
    written by an earlier process, without live metric objects. Same
    semantics and result as the live method.
    """
    counts = _sketch_counts(state)  # checks the snapshot's form first
    return _quantile(q, state["zero"], counts, state["count"], state["min"],
                     state["max"])


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

    def _get_or_create(self, cls, name: str, help: str):
        with self._lock:
            metric = self._metrics.get(name)
            if metric is None:
                metric = cls(name, help=help)
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

    def histogram(self, name: str, help: str = "") -> Histogram:
        """Get or create the histogram ``name``."""
        return self._get_or_create(Histogram, name, help)

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
    (added unless the name already carries it). A histogram's cumulative
    ``_bucket`` lines are one for the zero bucket (``le="0"``), one per
    occupied key ``k`` (``le="γ^k"``) and ``le="+Inf"``.
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
            cumulative = state["zero"]
            lines.append(f'{prom}_bucket{{le="0"}} {cumulative}')
            for key, count in _sketch_counts(state):
                cumulative += count
                bound = _prom_num(_GAMMA ** (key - 1) * _GAMMA)  # γ^k
                lines.append(f'{prom}_bucket{{le="{bound}"}} {cumulative}')
            lines.append(f'{prom}_bucket{{le="+Inf"}} {state["count"]}')
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
