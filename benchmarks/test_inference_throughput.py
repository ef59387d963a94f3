"""Inference throughput: the fast path vs the pre-PR prediction path.

Measures plans/sec for three serving scenarios —

* **single**: one (plan, profile) prediction at a time (optimizer in
  the loop);
* **grid**: 8 plans × 24 profiles, the plan-selection / resource-
  recommendation shape (Fig. 1) where the encoding cache pays off;
* **bulk**: a pre-encoded workload, isolating the graph-free fused
  forward + length-bucketed batching from encoding costs —

each on the fast path (encoding cache + graph-free fused LSTM forward +
length bucketing) and on the legacy path (cold encode per pair, then
the autograd forward over arrival-order batches from
``tests/oracles.py``). Results go to
``BENCH_inference.json`` at the repo root so future PRs have a perf
trajectory to regress against, plus the usual rendered table.

Expected shape: grid prediction ≥ 3× plans/sec vs the pre-PR path, and
fast-path predictions within 1e-6 of the autograd path.
"""

from __future__ import annotations

import pathlib
import time

import numpy as np

from benchmarks.conftest import get_fixed_pipeline, publish
from benchmarks.runmeta import write_bench_json
from repro.core import CostPredictor
from repro.core.advisor import default_profile_grid
from repro.encoding import PlanEncoder
from repro.eval import render_table
from tests.oracles import autograd_predict_seconds, pairwise_predict_log

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_inference.json"

GRID_PLANS = 8
GRID_PROFILES = 24
SINGLE_CALLS = 40
BULK_RECORDS = 200


def _best_of(fn, repeats=3):
    best = float("inf")
    result = None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def test_inference_throughput(benchmark):
    pipeline = get_fixed_pipeline("imdb")
    trained = pipeline.train_variant("RAAL", epochs=4)
    trainer, encoder = trained.trainer, trained.encoder
    predictor = CostPredictor(encoder, trainer)

    # The pre-PR path: no plan-side cache (every pair encodes cold), the
    # autograd Tensor forward, and arrival-order batches.
    legacy_encoder = PlanEncoder(
        semantic=encoder.semantic, structure=encoder.structure,
        use_structure=encoder.use_structure, use_onehot=encoder.use_onehot,
        cache_size=0)

    def legacy_predict(pairs):
        encoded = [legacy_encoder.encode(p, r) for p, r in pairs]
        return autograd_predict_seconds(trainer, encoded)

    records = pipeline.split.test
    plans = list({id(r.plan): r.plan for r in records}.values())[:GRID_PLANS]
    assert len(plans) == GRID_PLANS, f"need {GRID_PLANS} distinct plans"
    profiles = default_profile_grid()[:GRID_PROFILES]
    grid_pairs = [(plan, prof) for prof in profiles for plan in plans]

    results: dict[str, dict[str, float]] = {}

    # -- grid: 8 plans × 24 profiles -----------------------------------
    def fast_grid():
        encoder.cache_clear()   # cold cache each round: no cross-round credit
        return predictor.predict_grid(plans, profiles)

    # pytest-benchmark statistics cover the fast grid path.
    fast_matrix = benchmark(fast_grid)
    fast_grid_s = benchmark.stats["min"]
    legacy_grid_s, legacy_flat = _best_of(lambda: legacy_predict(grid_pairs))
    grid_diff = float(np.abs(fast_matrix.ravel() - legacy_flat).max())
    results["grid"] = {
        "pairs": len(grid_pairs),
        "fast_plans_per_sec": len(grid_pairs) / fast_grid_s,
        "legacy_plans_per_sec": len(grid_pairs) / legacy_grid_s,
        "speedup": legacy_grid_s / fast_grid_s,
        "max_abs_diff_seconds": grid_diff,
    }

    # -- single: one pair at a time ------------------------------------
    single_pairs = [(plans[i % len(plans)], profiles[i % len(profiles)])
                    for i in range(SINGLE_CALLS)]

    def fast_single():
        return [predictor.predict(p, r) for p, r in single_pairs]

    def legacy_single():
        return [float(legacy_predict([(p, r)])[0]) for p, r in single_pairs]

    encoder.cache_clear()
    fast_single_s, fast_single_out = _best_of(fast_single)
    legacy_single_s, legacy_single_out = _best_of(legacy_single)
    single_diff = float(np.abs(
        np.array(fast_single_out) - np.array(legacy_single_out)).max())
    results["single"] = {
        "pairs": SINGLE_CALLS,
        "fast_plans_per_sec": SINGLE_CALLS / fast_single_s,
        "legacy_plans_per_sec": SINGLE_CALLS / legacy_single_s,
        "speedup": legacy_single_s / fast_single_s,
        "max_abs_diff_seconds": single_diff,
    }

    # -- bulk: pre-encoded workload (forward + bucketing only) ---------
    bulk = [encoder.encode(r.plan, r.resources)
            for r in (records * 10)[:BULK_RECORDS]]
    fast_bulk_s, fast_bulk_out = _best_of(
        lambda: trainer.predict_seconds(bulk))
    legacy_bulk_s, legacy_bulk_out = _best_of(
        lambda: autograd_predict_seconds(trainer, bulk))
    bulk_diff = float(np.abs(fast_bulk_out - legacy_bulk_out).max())
    results["bulk"] = {
        "pairs": len(bulk),
        "fast_plans_per_sec": len(bulk) / fast_bulk_s,
        "legacy_plans_per_sec": len(bulk) / legacy_bulk_s,
        "speedup": legacy_bulk_s / fast_bulk_s,
        "max_abs_diff_seconds": bulk_diff,
    }

    # -- precision tiers on the grid shape -----------------------------
    # The f32 multi-threaded grid (warm encoder cache) against two f64
    # single-thread grids: the pairwise one (every pair its own row
    # through model.forward_inference, so the plan side runs once per
    # pair) and the per-plan one every tier runs. Only the pairwise
    # ratio is gated. Relative error is bounded by the f32 tier's
    # documented budget (DESIGN.md).
    from repro.core.predictor import PredictorConfig

    def pairwise_f64_grid():
        encoded = encoder.encode_many(grid_pairs)
        return trainer.seconds_from_log(pairwise_predict_log(
            trainer.model, encoded, trainer.config.batch_size))[0]

    pairwise_s, _ = _best_of(pairwise_f64_grid)
    per_plan_s, _ = _best_of(lambda: predictor.predict_grid(plans, profiles))
    results["precision"] = {
        "pairwise_f64_pairs_per_sec": len(grid_pairs) / pairwise_s,
        "per_plan_f64_pairs_per_sec": len(grid_pairs) / per_plan_s,
    }
    f32 = predictor.configured(PredictorConfig(precision="f32", threads=0))
    f32_s, f32_matrix = _best_of(lambda: f32.predict_grid(plans, profiles))
    rel = float((np.abs(f32_matrix - fast_matrix)
                 / np.maximum(np.abs(fast_matrix), 1e-9)).max())
    results["precision"]["f32"] = {
        "pairs_per_sec": len(grid_pairs) / f32_s,
        "speedup_vs_pairwise_f64": pairwise_s / f32_s,
        "speedup_vs_per_plan_f64": per_plan_s / f32_s,
        "max_rel_diff_vs_f64": rel,
    }

    results["config"] = {
        "grid_plans": GRID_PLANS,
        "grid_profiles": GRID_PROFILES,
        "cache_size": encoder.cache_size,
        "batch_size": trainer.config.batch_size,
    }
    write_bench_json(BENCH_JSON, results)

    rows = [[name,
             results[name]["pairs"],
             f"{results[name]['fast_plans_per_sec']:.0f}",
             f"{results[name]['legacy_plans_per_sec']:.0f}",
             f"{results[name]['speedup']:.1f}x",
             f"{results[name]['max_abs_diff_seconds']:.2e}"]
            for name in ("single", "grid", "bulk")]
    publish("inference_throughput", render_table(
        "Inference throughput — fast path vs pre-PR path (plans/sec)",
        ["scenario", "pairs", "fast", "pre-PR", "speedup", "max |Δ| (s)"],
        rows))

    # Shape: the grid scenario (the paper's Fig. 1 serving pattern) must
    # be at least 3x faster, and the fast path must be numerically
    # interchangeable with the autograd path.
    assert results["grid"]["speedup"] >= 3.0, results["grid"]
    for name in ("single", "grid", "bulk"):
        assert results[name]["max_abs_diff_seconds"] <= 1e-6, results[name]
        assert results[name]["speedup"] >= 1.0, results[name]
    # The float32 multi-threaded grid must at least double the float64
    # single-threaded pairwise grid's throughput; drift stays within the
    # documented f32 rounding budget (DESIGN.md).
    assert results["precision"]["f32"]["speedup_vs_pairwise_f64"] >= 2.0, \
        results["precision"]
    assert results["precision"]["f32"]["max_rel_diff_vs_f64"] <= 1e-4, \
        results["precision"]
