"""Per-prediction audit trail: who predicted what, from where, and how
wrong it turned out to be.

Every served prediction gets an :class:`AuditRecord` in a bounded ring:
request id, plan fingerprint, resource profile, serving tier, chain
provenance, serving latency, and the prediction itself. When the query
actually runs, :meth:`AuditTrail.observe` attaches the ground-truth
runtime and the resulting q-error — closing the loop that the
:mod:`~repro.obs.quality` tracker and drift detector consume.

The ring is capacity-bounded (oldest records evicted, index kept in
sync) so an always-on deployment cannot grow without bound; records are
plain dicts end to end, serializable to JSONL (:meth:`AuditTrail.\
write_jsonl`) and re-loadable from either a dedicated audit file or a
full telemetry event stream (:func:`load_audit_records`) — which is how
the ``repro audit`` CLI verb queries runs after the fact.

Like the rest of ``repro.obs`` this module imports no model code: plan
fingerprints and resource profiles arrive as already-flattened data
computed by the caller (the guarded predictor).
"""

from __future__ import annotations

import json
import math
import threading
import time
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

from repro.errors import TelemetryError
from repro.obs import runtime as obs
from repro.obs.quality import q_error

__all__ = [
    "AuditRecord",
    "AuditTrail",
    "load_audit_records",
]


@dataclass
class AuditRecord:
    """One served prediction, with ground truth attached once observed."""

    request_id: str
    #: Position within the request (grid/batched requests serve many
    #: predictions under one id).
    index: int
    #: Wall-clock timestamp of the serve (seconds since epoch).
    ts: float
    plan_fingerprint: str | None
    plan_nodes: int | None
    #: Flattened resource profile (e.g. executors/cores/memory).
    resources: dict = field(default_factory=dict)
    tier: str | None = None
    #: Chain provenance: which stage served (raal/gpsj/heuristic).
    source: str | None = None
    latency_seconds: float | None = None
    prediction_seconds: float | None = None
    workload: str | None = None
    #: Free-form serving context (degradation reason, shed mode, ...).
    reason: str | None = None
    observed_seconds: float | None = None
    q_error: float | None = None

    def to_dict(self) -> dict:
        """JSON-ready dict (insertion order matches field order)."""
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "AuditRecord":
        """Rebuild a record from :meth:`to_dict` output (extra keys
        ignored, so older/newer streams stay loadable)."""
        names = {f for f in cls.__dataclass_fields__}
        return cls(**{k: v for k, v in data.items() if k in names})


class AuditTrail:
    """Bounded, thread-safe ring of :class:`AuditRecord` entries.

    ``capacity`` bounds total retained records; ``per_request_cap``
    bounds how many predictions of one batched request are recorded
    (the rest are counted but dropped, so a 10k-plan grid request
    cannot evict the whole ring).
    """

    def __init__(self, capacity: int = 1024, per_request_cap: int = 16,
                 clock: Callable[[], float] = time.time) -> None:
        if capacity < 1:
            raise TelemetryError(f"audit capacity must be >= 1, got {capacity}")
        if per_request_cap < 1:
            raise TelemetryError(
                f"per_request_cap must be >= 1, got {per_request_cap}")
        self.capacity = capacity
        self.per_request_cap = per_request_cap
        self._clock = clock
        self._lock = threading.Lock()
        self._ring: OrderedDict[tuple[str, int], AuditRecord] = OrderedDict()
        self._next_id = 0
        self.recorded = 0
        self.truncated = 0
        self.observed = 0
        self.missed = 0

    def next_request_id(self) -> str:
        """Mint a fresh request id (``req-000001``, ...)."""
        with self._lock:
            self._next_id += 1
            return f"req-{self._next_id:06d}"

    def record(self, request_id: str, *, index: int = 0,
               plan_fingerprint: str | None = None,
               plan_nodes: int | None = None,
               resources: dict | None = None,
               tier: str | None = None, source: str | None = None,
               latency_seconds: float | None = None,
               prediction_seconds: float | None = None,
               workload: str | None = None,
               reason: str | None = None) -> AuditRecord | None:
        """Append one prediction; returns the record, or ``None`` when
        the per-request cap dropped it."""
        if index >= self.per_request_cap:
            with self._lock:
                self.truncated += 1
            obs.inc("audit.truncated_total",
                    help="Predictions dropped by the per-request audit cap")
            return None
        record = AuditRecord(
            request_id=request_id, index=index, ts=self._clock(),
            plan_fingerprint=plan_fingerprint, plan_nodes=plan_nodes,
            resources=dict(resources or {}), tier=tier, source=source,
            latency_seconds=latency_seconds,
            prediction_seconds=prediction_seconds,
            workload=workload, reason=reason)
        with self._lock:
            self._ring[(request_id, index)] = record
            self.recorded += 1
            while len(self._ring) > self.capacity:
                self._ring.popitem(last=False)
            size = len(self._ring)
        obs.inc("audit.records_total", help="Audit records appended")
        obs.set_gauge("audit.ring_size", size,
                      help="Audit records currently retained")
        obs.emit_event("audit", "prediction", request_id=request_id,
                       index=index, fingerprint=plan_fingerprint,
                       tier=tier, source=source,
                       prediction_seconds=prediction_seconds,
                       latency_seconds=latency_seconds,
                       resources=dict(resources or {}))
        return record

    def observe(self, request_id: str, observed_seconds: float,
                index: int = 0) -> AuditRecord | None:
        """Attach the ground-truth runtime to a recorded prediction.

        Computes and stores the sample's q-error. Returns the updated
        record, or ``None`` when it was never recorded or already
        evicted (the feedback is then simply late — counted, not an
        error).
        """
        with self._lock:
            record = self._ring.get((request_id, index))
            if record is None:
                self.missed += 1
            else:
                record.observed_seconds = float(observed_seconds)
                if record.prediction_seconds is not None:
                    qe = q_error(record.prediction_seconds, observed_seconds)
                    record.q_error = qe if math.isfinite(qe) else None
                self.observed += 1
        if record is None:
            obs.inc("audit.late_observations_total",
                    help="Observations for evicted or unknown audit records")
            return None
        obs.inc("audit.observations_total",
                help="Ground-truth runtimes attached to audit records")
        obs.emit_event("audit", "observation", request_id=request_id,
                       index=index, observed_seconds=float(observed_seconds),
                       q_error=record.q_error)
        return record

    def get(self, request_id: str, index: int = 0) -> AuditRecord | None:
        """The retained record for ``(request_id, index)``, if any."""
        with self._lock:
            return self._ring.get((request_id, index))

    def last(self, n: int = 10) -> list[AuditRecord]:
        """The ``n`` most recent records, oldest first."""
        with self._lock:
            records = list(self._ring.values())
        return records[-n:] if n > 0 else []

    def __len__(self) -> int:
        with self._lock:
            return len(self._ring)

    def write_jsonl(self, path: str) -> int:
        """Serialize the retained ring to JSONL; returns records written."""
        with self._lock:
            records = list(self._ring.values())
        with open(path, "w", encoding="utf-8") as fh:
            for record in records:
                fh.write(json.dumps(record.to_dict(), sort_keys=True) + "\n")
        return len(records)

    def snapshot(self) -> dict:
        """Point-in-time accounting for ``repro doctor`` and tests."""
        with self._lock:
            observed = sum(
                1 for r in self._ring.values() if r.observed_seconds is not None)
            return {
                "size": len(self._ring),
                "capacity": self.capacity,
                "recorded": self.recorded,
                "observed_total": self.observed,
                "observed_retained": observed,
                "truncated": self.truncated,
            }


def load_audit_records(path: str) -> list[AuditRecord]:
    """Load audit records from a JSONL file.

    Accepts both formats the system writes:

    * a dedicated audit dump (:meth:`AuditTrail.write_jsonl`) — one
      record dict per line;
    * a full telemetry event stream — ``component == "audit"`` events
      are reassembled, with ``observation`` events merged into their
      ``prediction`` by ``(request_id, index)``.

    Returns records in serve order.
    """
    records: "OrderedDict[tuple[str, int], AuditRecord]" = OrderedDict()
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except json.JSONDecodeError as exc:
                raise TelemetryError(
                    f"{path} line {lineno} is not JSON: {exc}") from exc
            if not isinstance(data, dict):
                continue
            if "request_id" in data and "component" not in data:
                # Dedicated dump: the line is the record.
                record = AuditRecord.from_dict(data)
                records[(record.request_id, record.index)] = record
            elif data.get("component") == "audit":
                _merge_event(records, data)
    return list(records.values())


def _merge_event(records: "OrderedDict[tuple[str, int], AuditRecord]",
                 data: dict) -> None:
    request_id = data.get("request_id")
    if not request_id:
        return
    index = int(data.get("index") or 0)
    key = (request_id, index)
    if data.get("event") == "prediction":
        records[key] = AuditRecord(
            request_id=request_id, index=index,
            ts=float(data.get("ts") or 0.0),
            plan_fingerprint=data.get("fingerprint"),
            plan_nodes=data.get("plan_nodes"),
            resources=dict(data.get("resources") or {}),
            tier=data.get("tier"), source=data.get("source"),
            latency_seconds=data.get("latency_seconds"),
            prediction_seconds=data.get("prediction_seconds"))
    elif data.get("event") == "observation":
        record = records.get(key)
        if record is not None:
            record.observed_seconds = data.get("observed_seconds")
            record.q_error = data.get("q_error")
