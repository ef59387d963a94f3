"""Sustained-load benchmark of the serving layer → ``BENCH_serving.json``.

Closed-loop concurrent clients drive ``PredictionService.predict``
(the transport-agnostic core of ``repro serve``) in the two dispatch
modes:

* ``single`` — ``batching=False``: every request runs its own
  forward on the caller's thread (per-request dispatch);
* ``batched`` — the work-conserving micro-batcher fuses the requests
  that queue behind a running batch into one forward through the
  bucket executor.

Each mode reports req/s and latency p50/p95/p99, both exact (measured
samples) and as estimated from the ``serve.predict.latency_seconds``
obs histogram. Mid-way through the batched phase a **hot swap** runs
against the live load — deploy, shadow-score, auto-promote — and the
benchmark fails if a single request errors or sees provenance other
than the old or new version.

Gates:

* batched throughput ≥ ``REPRO_BENCH_SERVE_MIN_SPEEDUP`` (default
  1.05×) of per-request dispatch — micro-batching must pay for its
  dispatcher hand-off;
* the mid-load hot swap completes with **zero** failed requests and
  only old-or-new versions observed;
* batched p99 ≤ ``REPRO_BENCH_SERVE_MAX_P99_MS`` (default 2000 ms).

Scale knobs: ``REPRO_BENCH_SERVE_CLIENTS`` (default 8),
``REPRO_BENCH_SERVE_REQUESTS`` (default 40 per client per mode),
``REPRO_BENCH_SERVE_QUERIES`` (default 16 distinct statements).
"""

from __future__ import annotations

import os
import pathlib
import threading
import time

import numpy as np

from repro import obs
from repro.core import CostPredictor
from repro.core.persistence import save_predictor
from repro.eval.reporting import render_table
from repro.serving import PredictionService, ServingConfig

from benchmarks.conftest import get_pipeline, publish
from benchmarks.runmeta import write_bench_json

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_serving.json"

CLIENTS = int(os.environ.get("REPRO_BENCH_SERVE_CLIENTS", "8"))
REQUESTS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_SERVE_REQUESTS", "40"))
N_QUERIES = int(os.environ.get("REPRO_BENCH_SERVE_QUERIES", "16"))
MIN_SPEEDUP = float(os.environ.get("REPRO_BENCH_SERVE_MIN_SPEEDUP", "1.05"))
MAX_P99_MS = float(os.environ.get("REPRO_BENCH_SERVE_MAX_P99_MS", "2000"))


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples) * 1e3  # → milliseconds
    return {"mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99))}


def _drive(service: PredictionService, queries: list[str],
           swap: dict | None = None) -> dict:
    """Closed-loop load: CLIENTS threads × REQUESTS_PER_CLIENT each.

    With ``swap`` set, a deploy→shadow→auto-promote runs once roughly
    a quarter of the way into the stream, against live traffic.
    """
    # Warm the plan cache so the measured stream isolates the serving
    # path (cache hit + fused forward), not SQL parsing.
    for sql in queries:
        service.predict({"sql": sql})

    samples: list[float] = []
    errors: list[BaseException] = []
    versions: set[str] = set()
    lock = threading.Lock()
    started = threading.Barrier(CLIENTS + 1)
    swap_at = (CLIENTS * REQUESTS_PER_CLIENT) // 4
    done = 0

    def client(worker: int) -> None:
        nonlocal done
        rng = np.random.default_rng(worker)
        local: list[float] = []
        started.wait()
        for i in range(REQUESTS_PER_CLIENT):
            sql = queries[int(rng.integers(0, len(queries)))]
            t0 = time.perf_counter()
            try:
                body = service.predict({"sql": sql})
            except BaseException as exc:
                with lock:
                    errors.append(exc)
                return
            local.append(time.perf_counter() - t0)
            with lock:
                versions.add(body["model_version"])
                done += 1
        with lock:
            samples.extend(local)

    threads = [threading.Thread(target=client, args=(i,))
               for i in range(CLIENTS)]
    for t in threads:
        t.start()
    started.wait()
    start = time.perf_counter()

    swap_result = None
    if swap is not None:
        while done < swap_at and not errors:
            time.sleep(0.01)
        outcome = service.deploy(swap)
        target = outcome["version"]
        shard = service.registry.shard("default")
        deadline = time.monotonic() + 120.0
        while (shard.current.version != target
               and time.monotonic() < deadline and not errors):
            time.sleep(0.02)
        swap_result = {"staged": outcome,
                       "promoted": shard.current.version == target,
                       "promoted_version": target}

    for t in threads:
        t.join(timeout=600.0)
    elapsed = time.perf_counter() - start

    hist = None
    active = obs.active()
    if active is not None:
        try:
            histogram = active.registry.histogram(
                "serve.predict.latency_seconds")
            hist = {"p50": histogram.quantile(0.50) * 1e3,
                    "p95": histogram.quantile(0.95) * 1e3,
                    "p99": histogram.quantile(0.99) * 1e3}
        except Exception:
            hist = None

    shard = service.registry.shard("default")
    return {
        "clients": CLIENTS,
        "requests": len(samples),
        "errors": [repr(e) for e in errors],
        "req_per_s": len(samples) / elapsed if elapsed else 0.0,
        "latency_ms": _percentiles(samples) if samples else {},
        "histogram_ms": hist,
        "versions_seen": sorted(versions),
        "batcher": shard.batcher.snapshot(),
        "swap": swap_result,
    }


def _build_service(batching: bool, catalog, predictor,
                   checkpoint: str) -> PredictionService:
    config = ServingConfig(
        batching=batching,
        # Generous admission so both modes serve learned answers —
        # the comparison is dispatch strategy, not shed behaviour.
        max_in_flight=64, max_queue_depth=128)
    service = PredictionService(config, catalog=catalog)
    service.install_model(predictor, checkpoint=checkpoint)
    return service


def test_serving_sustained_load(tmp_path):
    pipeline = get_pipeline("imdb")
    trained = pipeline.train_variant("RAAL")
    predictor = CostPredictor(trained.encoder, trained.trainer)
    checkpoint = tmp_path / "serving-ckpt"
    save_predictor(predictor, checkpoint)
    queries = pipeline.queries[:N_QUERIES]

    results: dict[str, dict] = {}

    # Mode 1: per-request dispatch (the baseline arm).
    telemetry = obs.Telemetry.create()
    with obs.attached(telemetry):
        service = _build_service(False, pipeline.catalog, predictor,
                                 str(checkpoint))
        try:
            results["single"] = _drive(service, queries)
        finally:
            service.close()

    # Mode 2: micro-batched dispatch, with a mid-load hot swap.
    telemetry = obs.Telemetry.create()
    with obs.attached(telemetry):
        service = _build_service(True, pipeline.catalog, predictor,
                                 str(checkpoint))
        try:
            results["batched"] = _drive(
                service, queries,
                swap={"checkpoint": str(checkpoint), "shadow_requests": 3,
                      "max_qerror": 1000.0, "auto_promote": True})
        finally:
            service.close()

    single, batched = results["single"], results["batched"]
    speedup = (batched["req_per_s"] / single["req_per_s"]
               if single["req_per_s"] else float("inf"))

    payload = {
        "clients": CLIENTS,
        "requests_per_client": REQUESTS_PER_CLIENT,
        "distinct_queries": len(queries),
        "modes": results,
        "speedup_batched_vs_single": speedup,
        "gates": {"min_speedup": MIN_SPEEDUP, "max_p99_ms": MAX_P99_MS},
    }
    write_bench_json(BENCH_JSON, payload)

    rows = []
    for name, mode in results.items():
        lat = mode["latency_ms"]
        rows.append([
            name, str(mode["requests"]), f"{mode['req_per_s']:.1f}",
            f"{lat.get('p50', 0):.2f}", f"{lat.get('p95', 0):.2f}",
            f"{lat.get('p99', 0):.2f}",
            str(mode["batcher"]["batches"]),
            f"{mode['batcher']['coalesced_requests'] / max(mode['batcher']['batches'], 1):.2f}",
        ])
    publish("serving_load", render_table(
        f"serving sustained load ({CLIENTS} clients, "
        f"speedup batched/single = {speedup:.2f}x)",
        ["mode", "requests", "req/s", "p50 ms", "p95 ms", "p99 ms",
         "batches", "coalesce"],
        rows))

    # -- gates -------------------------------------------------------------
    expected = CLIENTS * REQUESTS_PER_CLIENT
    for name, mode in results.items():
        assert mode["errors"] == [], f"{name}: requests failed: {mode['errors']}"
        assert mode["requests"] == expected, (
            f"{name}: {mode['requests']}/{expected} requests completed")

    swap = batched["swap"]
    assert swap is not None and swap["promoted"], (
        f"mid-load hot swap never promoted: {swap}")
    allowed = {swap["staged"]["version"], swap["promoted_version"]} | {
        v for v in batched["versions_seen"] if v.startswith("g1-")}
    assert set(batched["versions_seen"]) <= allowed, (
        f"torn provenance during swap: {batched['versions_seen']}")
    assert len(batched["versions_seen"]) == 2, (
        f"expected traffic on both sides of the swap: "
        f"{batched['versions_seen']}")

    assert batched["batcher"]["batches"] < expected, (
        "micro-batching never coalesced anything")
    assert speedup >= MIN_SPEEDUP, (
        f"micro-batching does not pay: {speedup:.2f}x < {MIN_SPEEDUP}x "
        f"(batched {batched['req_per_s']:.1f} req/s vs single "
        f"{single['req_per_s']:.1f} req/s)")
    assert batched["latency_ms"]["p99"] <= MAX_P99_MS, (
        f"batched p99 {batched['latency_ms']['p99']:.1f}ms > {MAX_P99_MS}ms")
