"""Per-layer metrics from the traced server's spans and the client's view.

Each HTTP request in the timed window is decomposed along the steps
that block its response::

    client latency = wire + http.dispatch
    http.dispatch  = http.json + service + (http handler self: unattributed)
    service        = service.self + sql.parse + plan.analyze
                     + plan.enumerate + batch.submit + feedback
    batch.submit   = batch.wait + guard (of the request's whole batch)
    guard          = guard.self + encode + forward
                     (guard.gpsj, the analytic stage, is part of guard.self)

``wire`` is what the server never sees: the socket round trip, kernel
buffering and the client's own HTTP code. Work on the dispatcher thread
belongs to a batch; for per-request cost means (``encode.ms``,
``forward.ms``, ``guard.*_ms``) it is
shared out to the batch's members pro rata by pairs, while
``batch.wait_ms`` subtracts the whole batch's guard time, which every
member waits for. Means are per HTTP request in the window.
"""

from __future__ import annotations

import json
import re
from collections import defaultdict
from pathlib import Path

from oracle import TIERS
from stats import percentile

#: (metric, unit, which end-to-end metric it should move) in report order.
LAYER_METRICS = (
    ("http.wire_ms", "ms", "latency_p50_ms/req_per_s, most on select_hot"),
    ("http.wire_p99_ms", "ms", "latency_p90_ms"),
    ("http.json_ms", "ms", "latency_p50_ms, most on advise_grid"),
    ("service.self_ms", "ms", "advise_grid latency"),
    ("service.plan_cache_hit_ratio", "ratio",
     "advise_grid latency; select_hot unchanged"),
    ("sql.parse_ms", "ms", "advise_grid latency/req_per_s"),
    ("plan.analyze_ms", "ms", "advise_grid latency/req_per_s"),
    ("plan.enumerate_ms", "ms", "advise_grid latency/req_per_s"),
    ("plan.enumerations_per_req", "count", "advise_grid; zero on select_hot"),
    ("encode.ms", "ms", "advise_grid latency"),
    ("encode.cache_hit_ratio", "ratio", "advise_grid latency"),
    ("encode.fingerprints_per_pair", "count",
     "select_hot latency via the guard's repeated fingerprinting"),
    ("batch.wait_ms", "ms", "select_hot latency_p50_ms"),
    ("batch.wait_p99_ms", "ms", "select_hot latency_p90_ms"),
    ("batch.requests_per_batch", "count",
     "feedback_loop feedback.recorded_ratio (fusion loses feedback)"),
    ("batch.pairs_per_batch", "count",
     "feedback_loop feedback.recorded_ratio"),
    ("guard.self_ms", "ms", "select_hot latency"),
    ("guard.gpsj_ms", "ms",
     "advise_grid req_per_s; the analytic stage inside guard.self_ms"),
    ("guard.admission_wait_ms", "ms", "advise_grid latency_p90_ms"),
    ("guard.audit_records_per_pair", "count", "select_hot latency"),
    *((f"guard.tier_share.{tier}", "ratio", "advise_grid learned_rate")
      for tier in TIERS),
    ("forward.ms", "ms", "advise_grid learned_rate, then req_per_s"),
    ("forward.us_per_pair", "us", "advise_grid learned_rate"),
    ("forward.pairs_per_call", "count", "advise_grid learned_rate"),
    ("feedback.ms", "ms", "feedback_loop only"),
    ("feedback.recorded_ratio", "ratio",
     "feedback_loop only; falls as more requests fuse"),
    ("client.error_rate", "ratio", "1 - success_rate"),
    ("client.degraded_rate", "ratio", "pairs below f64; 1 - tier_share.f64"),
    ("client.latency_p99_ms", "ms", "latency_p90_ms, further out"),
    ("client.lateness_p99_ms", "ms", "feedback_loop generator lateness"),
    ("trace.unattributed_share", "ratio", "validity of the attribution"),
    ("trace.overhead_pct", "%", "validity of the attribution"),
)

_PROM = re.compile(r"^([A-Za-z_:][A-Za-z0-9_:]*)\s+([-+0-9.eE]+|[+-]?Inf|NaN)$",
                   re.M)


def prometheus_values(text: str) -> dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition."""
    return {name: float(value) for name, value in _PROM.findall(text)}


def _counter_ratio(before: str, after: str, hits: str,
                   misses: str) -> float:
    b, a = prometheus_values(before), prometheus_values(after)
    h = a.get(hits, 0.0) - b.get(hits, 0.0)
    m = a.get(misses, 0.0) - b.get(misses, 0.0)
    return h / (h + m) if h + m > 0 else 0.0


def window_samples(window) -> list:
    """Every HTTP exchange of the window (both halves of open-loop ops)."""
    if window.samples:
        return list(window.samples)
    out = []
    for op in window.ops:
        out.extend(s for s in (op.predict, op.feedback) if s is not None)
    return out


def _key(ctx) -> tuple | None:
    return tuple(ctx) if ctx else None


class _Spans:
    """Server spans indexed by request and by batch."""

    def __init__(self, doc: dict) -> None:
        self.by_request = defaultdict(lambda: defaultdict(float))
        self.count_request = defaultdict(lambda: defaultdict(int))
        self.by_batch = defaultdict(lambda: defaultdict(float))
        self.count_batch = defaultdict(lambda: defaultdict(int))
        self.batch_tiers = defaultdict(lambda: defaultdict(int))
        self.batch_forward_pairs = defaultdict(int)
        self.batch_stored = defaultdict(int)
        self.request_recorded = defaultdict(int)
        for name, t0, t1, _tid, ctx, extra in doc["spans"]:
            ms = (t1 - t0) / 1e6
            key = _key(ctx)
            if key is None:
                continue
            if key[0] == "r":
                self.by_request[key[1:]][name] += ms
                self.count_request[key[1:]][name] += 1
                if name == "feedback" and extra:
                    self.request_recorded[key[1:]] += 1
                continue
            batch = key[1]
            self.by_batch[batch][name] += ms
            self.count_batch[batch][name] += 1
            if name == "guard" and extra:
                pairs, tier = extra
                self.batch_tiers[batch][tier] += pairs
            elif name == "forward":
                self.batch_forward_pairs[batch] += extra or 0
            elif name == "guard.audit" and extra:
                self.batch_stored[batch] += 1
        self.members = {}          # request key -> (batch id, pair share)
        self.batches = {}
        for batch_id, _t0, _t1, members in doc["batches"]:
            total = sum(pairs for _, pairs in members) or 1
            self.batches[batch_id] = members
            for request, pairs in members:
                if request:
                    self.members[tuple(request[1:])] = (batch_id,
                                                       pairs / total)


def layer_metrics(window, result, doc: dict,
                  untraced_p50: float) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of one traced window, ``name -> (value, unit)``."""
    spans = _Spans(doc)
    sums = defaultdict(float)
    wires, waits = [], []
    latency_total = unattributed = 0.0
    batches_seen = set()
    n = 0
    for sample in window_samples(window):
        key = (sample.port, sample.seq)
        own = spans.by_request.get(key)
        if own is None or not sample.status:
            continue
        n += 1
        counts = spans.count_request[key]
        latency = sample.latency_ms
        dispatch = own["http.dispatch"]
        wire = latency - dispatch
        wires.append(wire)
        sums["http.wire_ms"] += wire
        sums["http.json_ms"] += own["http.json"]
        children = sum(own[s] for s in ("sql.parse", "plan.analyze",
                                        "plan.enumerate", "batch.submit",
                                        "feedback"))
        sums["service.self_ms"] += own["service"] - children
        sums["sql.parse_ms"] += own["sql.parse"]
        sums["plan.analyze_ms"] += own["plan.analyze"]
        sums["plan.enumerate_ms"] += own["plan.enumerate"]
        sums["plan.enumerations_per_req"] += counts["plan.enumerate"]
        sums["feedback.ms"] += own["feedback"]
        sums["feedback.calls"] += counts["feedback"]
        sums["feedback.recorded"] += spans.request_recorded[key]
        latency_total += latency
        unattributed += dispatch - own["http.json"] - own["service"]
        member = spans.members.get(key)
        if member is None:
            continue
        batch, share = member
        batches_seen.add(batch)
        work = spans.by_batch[batch]
        wait = own["batch.submit"] - work["guard"]
        waits.append(wait)
        sums["batch.wait_ms"] += wait
        sums["encode.ms"] += share * work["encode"]
        sums["forward.ms"] += share * work["forward"]
        sums["guard.self_ms"] += share * (work["guard"] - work["encode"]
                                          - work["forward"])
        sums["guard.gpsj_ms"] += share * work["guard.gpsj"]
        sums["guard.admission_wait_ms"] += share * work["guard.admission"]

    per = 1.0 / n if n else 0.0
    values = {name: sums[name] * per for name in (
        "http.wire_ms", "http.json_ms", "service.self_ms", "sql.parse_ms",
        "plan.analyze_ms", "plan.enumerate_ms", "plan.enumerations_per_req",
        "encode.ms", "batch.wait_ms", "guard.self_ms", "guard.gpsj_ms",
        "guard.admission_wait_ms", "forward.ms", "feedback.ms")}
    values["http.wire_p99_ms"] = percentile(wires, 99) if wires else 0.0
    values["batch.wait_p99_ms"] = percentile(waits, 99) if waits else 0.0

    tiers = defaultdict(int)
    pairs = fingerprints = stored = forward_calls = forward_pairs = 0
    forward_ms = members = 0.0
    for batch in batches_seen:
        for tier, count in spans.batch_tiers[batch].items():
            tiers[tier] += count
        pairs += sum(p for _, p in spans.batches[batch])
        members += len(spans.batches[batch])
        fingerprints += spans.count_batch[batch]["encode.fingerprint"]
        stored += spans.batch_stored[batch]
        forward_calls += spans.count_batch[batch]["forward"]
        forward_pairs += spans.batch_forward_pairs[batch]
        forward_ms += spans.by_batch[batch]["forward"]
    served = sum(tiers.values())
    nb = len(batches_seen)
    values["batch.requests_per_batch"] = members / nb if nb else 0.0
    values["batch.pairs_per_batch"] = pairs / nb if nb else 0.0
    values["encode.fingerprints_per_pair"] = (fingerprints / pairs
                                              if pairs else 0.0)
    values["guard.audit_records_per_pair"] = stored / pairs if pairs else 0.0
    for tier in TIERS:
        values[f"guard.tier_share.{tier}"] = (tiers[tier] / served
                                              if served else 0.0)
    values["forward.us_per_pair"] = (forward_ms * 1e3 / forward_pairs
                                     if forward_pairs else 0.0)
    values["forward.pairs_per_call"] = (forward_pairs / forward_calls
                                        if forward_calls else 0.0)
    values["feedback.recorded_ratio"] = (
        sums["feedback.recorded"] / sums["feedback.calls"]
        if sums["feedback.calls"] else 0.0)
    values["service.plan_cache_hit_ratio"] = _counter_ratio(
        window.metrics_before, window.metrics_after,
        "serve_plan_cache_hits_total", "serve_plan_cache_misses_total")
    values["encode.cache_hit_ratio"] = _counter_ratio(
        window.metrics_before, window.metrics_after,
        "encoder_cache_hits_total", "encoder_cache_misses_total")
    values["client.error_rate"] = (result.failed / result.attempted
                                   if result.attempted else 0.0)
    values["client.degraded_rate"] = (
        1.0 - result.tier_pairs.get("f64", 0) / result.pairs
        if result.pairs else 0.0)
    values["client.latency_p99_ms"] = (percentile(result.latencies_ms, 99)
                                       if result.latencies_ms else 0.0)
    values["client.lateness_p99_ms"] = (percentile(result.lateness_ms, 99)
                                        if result.lateness_ms else 0.0)
    values["trace.unattributed_share"] = (unattributed / latency_total
                                          if latency_total else 0.0)
    traced_p50 = (percentile(result.latencies_ms, 50)
                  if result.latencies_ms else untraced_p50)
    values["trace.overhead_pct"] = ((traced_p50 - untraced_p50)
                                    / untraced_p50 * 100.0)
    return {name: (float(values[name]), unit)
            for name, unit, _ in LAYER_METRICS}


def chrome_trace(window, doc: dict) -> dict:
    """Client and server spans as Chrome trace-event JSON (µs)."""
    samples = window_samples(window)
    starts = [s.t0 * 1e9 for s in samples] + [t0 for _, t0, *_ in
                                               doc["spans"]]
    base = min(starts) if starts else 0
    events = [{"name": "process_name", "ph": "M", "pid": 1,
               "args": {"name": "load generator"}},
              {"name": "process_name", "ph": "M", "pid": 2,
               "args": {"name": "repro serve (traced)"}}]
    for s in samples:
        events.append({"name": f"client {s.path}", "ph": "X", "pid": 1,
                       "tid": s.port, "ts": (s.t0 * 1e9 - base) / 1e3,
                       "dur": (s.t1 - s.t0) * 1e6,
                       "args": {"seq": s.seq, "status": s.status}})
    for name, t0, t1, tid, ctx, extra in doc["spans"]:
        events.append({"name": name, "ph": "X", "pid": 2, "tid": tid,
                       "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                       "args": {"context": ctx, "detail": extra}})
    for batch_id, t0, t1, members in doc["batches"]:
        events.append({"name": "batch", "ph": "X", "pid": 2, "tid": 0,
                       "ts": (t0 - base) / 1e3, "dur": (t1 - t0) / 1e3,
                       "args": {"batch": batch_id, "members": members}})
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_trace_artifacts(directory: Path, tag: str, window, doc: dict,
                          layers: dict) -> None:
    """``trace-<tag>.json`` (Chrome) and ``layers-<tag>.txt`` (table)."""
    (directory / f"trace-{tag}.json").write_text(
        json.dumps(chrome_trace(window, doc)))
    width = max(len(name) for name, _, _ in LAYER_METRICS)
    lines = [f"# per-layer metrics, {window.workload.name}, per HTTP request "
             f"in the traced window",
             f"{'metric':<{width}}  {'value':>12}  unit   should move"]
    for name, unit, moves in LAYER_METRICS:
        value = layers[name][0]
        lines.append(f"{name:<{width}}  {value:>12.6g}  {unit:<5}  {moves}")
    (directory / f"layers-{tag}.txt").write_text("\n".join(lines) + "\n")
