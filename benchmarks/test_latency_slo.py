"""Sustained-load latency SLO harness: p50/p95/p99 per execution mode.

Drives a *closed-loop* request stream (each request issued as soon as
the previous one returns — the plan-selector-in-the-loop serving shape)
against the predictor in three execution modes:

* **f64-1T** — float64, single-thread: the reference configuration;
* **f32-1T** — float32 kernels, single-thread;
* **f32-multiT** — float32 + bucket-parallel threads.

Every mode runs the one inference kernel (one plan-side forward per
distinct plan).

Per mode it reports p50/p95/p99 twice: exact percentiles over the raw
per-request wall-clock samples, and the estimates of the
``predict.latency_seconds`` obs histogram (what a production deployment
would alert on). The histogram is a log-bucket sketch whose quantiles
are within 1 % of the nearest-rank sample, so the two blocks should
agree to about that, plus the gap between nearest-rank and interpolated
percentiles on few samples.

Results go to ``BENCH_latency.json`` with run metadata. Two gates:

* the f32-multiT grid must clear ``REPRO_BENCH_SLO_MIN_GRID_SPEEDUP``
  (default 2.0×) over the f64 *pairwise* grid — every pair collated as
  its own row through ``model.forward_inference``
  (``tests.oracles.pairwise_predict_log``), so the plan side runs once
  per pair. The f64-1T per-plan grid and the f32 speedup over it are
  reported, not gated;
* p99 of each mode must not exceed ``REPRO_BENCH_SLO_MAX_P99_REGRESSION``
  (default 10×) times the committed baseline's p99 for that mode —
  a coarse threshold by design, so cross-host variance doesn't flake
  while order-of-magnitude regressions still fail.

Scale knobs: ``REPRO_BENCH_SLO_REQUESTS`` (default 150 per mode),
``REPRO_BENCH_SLO_PAIRS`` (default 8 pairs per request),
``REPRO_BENCH_SLO_GRID_REPEATS`` (default 5).
"""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np

from benchmarks.conftest import get_fixed_pipeline, publish
from benchmarks.runmeta import write_bench_json
from repro import obs
from repro.core import CostPredictor
from repro.core.advisor import default_profile_grid
from repro.core.predictor import PredictorConfig
from repro.eval import render_table
from tests.oracles import pairwise_predict_log

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_latency.json"

N_REQUESTS = int(os.environ.get("REPRO_BENCH_SLO_REQUESTS", "150"))
PAIRS_PER_REQUEST = int(os.environ.get("REPRO_BENCH_SLO_PAIRS", "8"))
GRID_REPEATS = int(os.environ.get("REPRO_BENCH_SLO_GRID_REPEATS", "5"))
MIN_GRID_SPEEDUP = float(
    os.environ.get("REPRO_BENCH_SLO_MIN_GRID_SPEEDUP", "2.0"))
MAX_P99_REGRESSION = float(
    os.environ.get("REPRO_BENCH_SLO_MAX_P99_REGRESSION", "10.0"))

GRID_PLANS = 8
GRID_PROFILES = 24

#: mode name -> (PredictorConfig, description)
MODES: dict[str, PredictorConfig] = {
    "f64-1T": PredictorConfig(precision="f64", threads=1),
    "f32-1T": PredictorConfig(precision="f32", threads=1),
    "f32-multiT": PredictorConfig(precision="f32", threads=0),
}


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples)
    return {"p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99))}


def _closed_loop(predictor: CostPredictor, requests: list) -> dict:
    """Run the request stream under attached telemetry; return stats."""
    telemetry = obs.Telemetry.create()
    samples: list[float] = []
    with obs.attached(telemetry):
        # One warmup request primes the weight bundle / thread pool /
        # scratch arenas outside the measured stream.
        predictor.predict_many(requests[0])
        start = time.perf_counter()
        for pairs in requests:
            t0 = time.perf_counter()
            predictor.predict_many(pairs)
            samples.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        hist = telemetry.registry.histogram("predict.latency_seconds")
        hist_q = {"p50": hist.quantile(0.50), "p95": hist.quantile(0.95),
                  "p99": hist.quantile(0.99)}
    n_pairs = sum(len(r) for r in requests)
    return {
        "requests": len(requests),
        "pairs_per_request": len(requests[0]),
        "exact": _percentiles(samples),
        "histogram": hist_q,
        "requests_per_sec": len(requests) / elapsed,
        "pairs_per_sec": n_pairs / elapsed,
    }


def _pairwise_f64_grid(predictor: CostPredictor, plans, profiles):
    """The f64 grid with one forward row per pair (plan side per pair)."""
    pairs = [(plan, profile) for profile in profiles for plan in plans]
    encoded = predictor.encoder.encode_many(pairs)
    trainer = predictor.trainer
    log_preds = pairwise_predict_log(trainer.model, encoded,
                                     trainer.config.batch_size)
    costs, _ = trainer.seconds_from_log(log_preds)
    return costs.reshape(len(profiles), len(plans))


def _best_of(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def test_latency_slo():
    baseline = None
    if BENCH_JSON.exists():
        import json

        baseline = json.loads(BENCH_JSON.read_text())

    pipeline = get_fixed_pipeline("imdb")
    trained = pipeline.train_variant("RAAL", epochs=4)
    base = CostPredictor(trained.encoder, trained.trainer)

    records = pipeline.split.test
    plans = list({id(r.plan): r.plan for r in records}.values())[:GRID_PLANS]
    profiles = default_profile_grid()[:GRID_PROFILES]
    rng = np.random.default_rng(11)
    requests = [
        [(plans[int(i)], profiles[int(j)])
         for i, j in zip(rng.integers(0, len(plans), PAIRS_PER_REQUEST),
                         rng.integers(0, len(profiles), PAIRS_PER_REQUEST))]
        for _ in range(N_REQUESTS)
    ]

    results: dict[str, dict] = {"modes": {}}
    predictors = {name: base.configured(cfg) for name, cfg in MODES.items()}
    for name, predictor in predictors.items():
        stats = _closed_loop(predictor, requests)
        stats["config"] = {
            "precision": predictor.config.precision,
            "threads": predictor.executor.threads,
        }
        results["modes"][name] = stats

    # -- grid throughput: f32 multi-thread vs the pairwise f64 grid -----
    grid_f64_s = _best_of(
        lambda: _pairwise_f64_grid(predictors["f64-1T"], plans, profiles),
        GRID_REPEATS)
    grid_f64_per_plan_s = _best_of(
        lambda: predictors["f64-1T"].predict_grid(plans, profiles),
        GRID_REPEATS)
    grid_f32_s = _best_of(
        lambda: predictors["f32-multiT"].predict_grid(plans, profiles),
        GRID_REPEATS)
    n_grid = GRID_PLANS * GRID_PROFILES
    results["grid"] = {
        "pairs": n_grid,
        "f64_1T_pairs_per_sec": n_grid / grid_f64_s,
        "f64_1T_per_plan_pairs_per_sec": n_grid / grid_f64_per_plan_s,
        "f32_multiT_pairs_per_sec": n_grid / grid_f32_s,
        "f32_speedup_vs_f64": grid_f64_s / grid_f32_s,
        # Not gated: both sides run the per-plan kernel.
        "f32_speedup_vs_per_plan_f64": grid_f64_per_plan_s / grid_f32_s,
    }
    pairwise_ref = _pairwise_f64_grid(predictors["f64-1T"], plans, profiles)

    # -- precision drift of the f32 tier on this grid ------------------
    grid_ref = predictors["f64-1T"].predict_grid(plans, profiles)
    denom = np.maximum(np.abs(grid_ref), 1e-9)
    results["precision_drift"] = {
        "f32-multiT": float((np.abs(
            predictors["f32-multiT"].predict_grid(plans, profiles)
            - grid_ref) / denom).max()),
    }
    # The per-plan f64 grid against the pairwise one (contract: 1e-12).
    results["precision_drift"]["f64-1T-vs-pairwise"] = float(
        (np.abs(grid_ref - pairwise_ref)
         / np.maximum(np.abs(pairwise_ref), 1e-300)).max())

    results["config"] = {
        "requests": N_REQUESTS,
        "pairs_per_request": PAIRS_PER_REQUEST,
        "grid_plans": GRID_PLANS,
        "grid_profiles": GRID_PROFILES,
        "min_grid_speedup": MIN_GRID_SPEEDUP,
        "max_p99_regression": MAX_P99_REGRESSION,
    }
    write_bench_json(BENCH_JSON, results)

    rows = [[name,
             f"{m['exact']['p50'] * 1e3:.2f}",
             f"{m['exact']['p95'] * 1e3:.2f}",
             f"{m['exact']['p99'] * 1e3:.2f}",
             f"{m['histogram']['p99'] * 1e3:.2f}",
             f"{m['requests_per_sec']:.0f}"]
            for name, m in results["modes"].items()]
    publish("latency_slo", render_table(
        f"Sustained-load latency ({N_REQUESTS} reqs × {PAIRS_PER_REQUEST} "
        "pairs, closed loop; ms)",
        ["mode", "p50", "p95", "p99", "p99 (hist)", "req/s"], rows))

    # -- gates ----------------------------------------------------------
    assert results["grid"]["f32_speedup_vs_f64"] >= MIN_GRID_SPEEDUP, \
        results["grid"]
    assert results["precision_drift"]["f32-multiT"] <= 1e-4, \
        results["precision_drift"]
    assert results["precision_drift"]["f64-1T-vs-pairwise"] <= 1e-12, \
        results["precision_drift"]

    if baseline and "modes" in baseline:
        for name, stats in results["modes"].items():
            prior = baseline["modes"].get(name)
            if not prior:
                continue
            limit = prior["exact"]["p99"] * MAX_P99_REGRESSION
            assert stats["exact"]["p99"] <= limit, (
                f"{name} p99 {stats['exact']['p99']:.4f}s exceeds "
                f"{MAX_P99_REGRESSION}x committed baseline "
                f"{prior['exact']['p99']:.4f}s")
