"""Observability: metrics, tracing spans, events, and quality signals.

A dependency-free telemetry layer shared by the whole pipeline:

* :class:`MetricsRegistry` — thread-safe counters, gauges, and
  log-bucket sketch histograms (quantiles within 1 % of exact) with
  Prometheus-text and JSON export;
* :class:`Tracer` / :class:`Span` — nested, annotated wall-time spans
  over the serving hot path (encode → forward → predict → guard),
  exportable as Chrome/Perfetto trace JSON;
* :class:`EventLog` — one JSONL structured event stream with a
  per-component stdlib-``logging`` bridge;
* :class:`AccuracyTracker` / :class:`DriftDetector` — online q-error
  statistics over the prediction feedback loop, with hysteretic
  reference-vs-current drift detection (ratio breach + Page–Hinkley);
* :class:`AuditTrail` — a bounded per-prediction audit ring (request
  id, fingerprint, tier, provenance, prediction, ground truth),
  queryable via ``repro audit``;
* :class:`SLOTracker` — multi-window multi-burn-rate error-budget
  alerting over latency and q-error SLOs, rendered by ``repro top``;
* :class:`TelemetryReport` — a run's aggregate, rendered by
  ``repro metrics`` and written by ``--emit-telemetry``.

Instrumented code uses the module-level helpers (``obs.span``,
``obs.inc``, ``obs.observe``, ``obs.set_gauge``, ``obs.emit_event``),
which are no-ops unless a :class:`Telemetry` bundle is attached — the
disabled cost is one global read per call site.
"""

from repro.obs.audit import AuditRecord, AuditTrail, load_audit_records
from repro.obs.events import EventLog, EventLogHandler
from repro.obs.metrics import (
    RELATIVE_ACCURACY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    prometheus_from_snapshot,
    quantile_from_snapshot,
    render_snapshot,
)
from repro.obs.quality import (
    DRIFT,
    STABLE,
    AccuracyTracker,
    DriftConfig,
    DriftDetector,
    QualityConfig,
    q_error,
)
from repro.obs.report import TelemetryReport, load_report
from repro.obs.runtime import (
    NULL_SPAN,
    TELEMETRY_ENV_VAR,
    Telemetry,
    active,
    attach,
    attached,
    detach,
    emit_event,
    enabled,
    inc,
    install_from_env,
    observe,
    set_gauge,
    span,
)
from repro.obs.slo import SLO, BurnRateConfig, SLOTracker
from repro.obs.trace_export import (
    chrome_trace,
    chrome_trace_events,
    chrome_trace_json,
)
from repro.obs.tracing import Span, Tracer

__all__ = [
    "RELATIVE_ACCURACY",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "prometheus_from_snapshot",
    "quantile_from_snapshot",
    "render_snapshot",
    "Span",
    "Tracer",
    "EventLog",
    "EventLogHandler",
    "TelemetryReport",
    "load_report",
    "chrome_trace",
    "chrome_trace_events",
    "chrome_trace_json",
    "q_error",
    "QualityConfig",
    "AccuracyTracker",
    "DriftConfig",
    "DriftDetector",
    "STABLE",
    "DRIFT",
    "AuditRecord",
    "AuditTrail",
    "load_audit_records",
    "SLO",
    "BurnRateConfig",
    "SLOTracker",
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
