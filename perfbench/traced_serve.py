#!/usr/bin/env python3
"""Start ``repro serve`` with a timer around each layer's entry points.

Usage::

    PYTHONPATH=src python3 perfbench/traced_serve.py --spans-out SPANS.json \\
        serve --model DIR --dataset imdb --catalog-scale 0.15 --port 0

Everything after ``--spans-out PATH`` is handed to the ``repro`` CLI
unchanged, so the service is built exactly as ``repro serve`` builds it.
Before that, the public entry points of each layer are replaced by
wrappers that record ``(name, start_ns, end_ns, thread, context, extra)``
spans in memory; on shutdown (SIGINT) the spans are written to
``PATH`` as JSON. Times come from ``time.perf_counter_ns``, the same
monotonic clock the load generator uses, so client and server spans
share one time base.

Context ties spans to requests. The HTTP wrapper tags the handling
thread with ``["r", client_port, n]``: the n-th request on the client
connection whose local port is ``client_port``. Work on the micro-batch
dispatcher thread is tagged ``["b", batch_id]``, and every batch records
its members' request tags and pair counts so the attribution can share
batch work out pro rata by pairs.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import sys
import threading
import time

from oracle import served_tier

_now = time.perf_counter_ns


class SpanLog:
    """The spans and batches of one server process, kept in memory."""

    def __init__(self) -> None:
        self.spans: list = []
        self.batches: list = []
        self.context = threading.local()
        self.batch_ids = itertools.count(1)

    def current(self):
        return getattr(self.context, "key", None)

    def timed(self, name: str, fn, extra=None):
        """Wrap ``fn`` to record one span per call.

        ``extra(args, kwargs, result)`` adds a JSON-friendly detail to
        the span (pair counts, tier, whether a record was stored).
        """
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = _now()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                detail = extra(args, kwargs, result) if extra else None
                self.spans.append((name, start, _now(),
                                   threading.get_ident(), self.current(),
                                   detail))
        return wrapper

    def write(self, path: str) -> None:
        with open(path, "w") as out:
            json.dump({"clock": "perf_counter_ns", "spans": self.spans,
                       "batches": self.batches}, out)


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs.get(name)


class _TimedJSON:
    """Stands in for the ``json`` module inside the HTTP layer."""

    def __init__(self, module, log: SpanLog) -> None:
        self._module = module
        self.loads = log.timed("http.json", module.loads)
        self.dumps = log.timed("http.json", module.dumps)

    def __getattr__(self, name):
        return getattr(self._module, name)


def install(log: SpanLog) -> None:
    """Replace each layer's entry points with wrappers recording to ``log``."""
    import repro.encoding.plan_encoder as plan_encoder
    import repro.reliability.guard as guard
    import repro.serving.batcher as batcher
    import repro.serving.http as http_layer
    import repro.serving.service as service
    from repro.baselines.gpsj import GPSJCostModel
    from repro.core.predictor import CostPredictor
    from repro.obs.audit import AuditTrail
    from repro.reliability.admission import AdmissionController

    # serving.http: the whole handler call, and its json calls.
    dispatch = http_layer._Handler._dispatch

    def traced_dispatch(self, method):
        self._bench_seq = getattr(self, "_bench_seq", 0) + 1
        log.context.key = ["r", self.client_address[1], self._bench_seq]
        start = _now()
        try:
            dispatch(self, method)
        finally:
            log.spans.append(("http.dispatch", start, _now(),
                              threading.get_ident(), log.context.key,
                              self.path))
            log.context.key = None

    http_layer._Handler._dispatch = traced_dispatch
    http_layer.json = _TimedJSON(json, log)

    # serving.service endpoints, and the sql/plan calls bound in it.
    Service = service.PredictionService
    for endpoint in ("predict", "predict_grid", "feedback"):
        setattr(Service, endpoint,
                log.timed("service", getattr(Service, endpoint)))
    service.parse_sql = log.timed("sql.parse", service.parse_sql)
    service.analyze = log.timed("plan.analyze", service.analyze)
    service.enumerate_plans = log.timed("plan.enumerate",
                                        service.enumerate_plans)

    # serving.batcher: submit on the request thread; batches on the
    # dispatcher thread, with each member's request tag.
    class TracedItem(batcher.BatchItem):
        __slots__ = ("request",)

        def __init__(self, pairs, deadline) -> None:
            super().__init__(pairs, deadline)
            self.request = log.current()

    batcher.BatchItem = TracedItem
    batcher.MicroBatcher.submit = log.timed("batch.submit",
                                            batcher.MicroBatcher.submit)
    run_batch = batcher.MicroBatcher._run_batch

    def traced_run_batch(self, batch):
        outer = log.current()
        batch_id = next(log.batch_ids)
        log.context.key = ["b", batch_id]
        start = _now()
        try:
            run_batch(self, batch)
        finally:
            log.batches.append((batch_id, start, _now(),
                                [[getattr(item, "request", None),
                                  len(item.pairs)] for item in batch]))
            log.context.key = outer

    batcher.MicroBatcher._run_batch = traced_run_batch

    # reliability: the guarded chain, admission, audit, feedback.
    G = guard.GuardedCostPredictor
    G.predict_many_explained = log.timed(
        "guard", G.predict_many_explained,
        lambda a, k, r: [len(_arg(a, k, 1, "pairs") or ()),
                         served_tier(r.source, r.reason) if r else None])
    G.record_observation = log.timed("feedback", G.record_observation,
                                     lambda a, k, r: r is not None)
    AdmissionController.acquire = log.timed("guard.admission",
                                            AdmissionController.acquire)
    AuditTrail.record = log.timed("guard.audit", AuditTrail.record,
                                  lambda a, k, r: r is not None)
    GPSJCostModel.estimate = log.timed("guard.gpsj", GPSJCostModel.estimate)

    # encoding, with plan_fingerprint as bound in both of its callers.
    plan_encoder.PlanEncoder.encode_many = log.timed(
        "encode", plan_encoder.PlanEncoder.encode_many,
        lambda a, k, r: len(_arg(a, k, 1, "pairs") or ()))
    fingerprint = log.timed("encode.fingerprint",
                            plan_encoder.plan_fingerprint)
    plan_encoder.plan_fingerprint = fingerprint
    guard.plan_fingerprint = fingerprint

    # core/nn: the forward on encoded pairs.
    CostPredictor.predict_encoded = log.timed(
        "forward", CostPredictor.predict_encoded,
        lambda a, k, r: len(_arg(a, k, 1, "encoded") or ()))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--spans-out", required=True)
    args, rest = parser.parse_known_args(argv)
    log = SpanLog()
    install(log)
    from repro.cli import main as cli_main

    try:
        return cli_main(rest)
    finally:
        log.write(args.spans_out)


if __name__ == "__main__":
    sys.exit(main())
