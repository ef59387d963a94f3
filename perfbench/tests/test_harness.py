"""Self-tests of the benchmark harness (no server needed).

Run from the repository root::

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

from attribution import layer_metrics  # noqa: E402
from client import Sample  # noqa: E402
from oracle import Oracle, served_tier  # noqa: E402
from stats import beyond, lateness, percentile, quartiles, spread, worse_by  # noqa: E402
from workloads import (WORKLOADS, RequestStream, Statement,  # noqa: E402
                       poisson_schedule, runtime_noise, statement_pool)


@pytest.fixture(scope="module")
def catalog():
    from repro.data.imdb import build_imdb_catalog

    return build_imdb_catalog(scale=0.05)


# -- determinism ---------------------------------------------------------------

def test_statement_pool_is_deterministic_per_seed(catalog):
    first = [s.sql for s in statement_pool(catalog, 6, seed=3)]
    again = [s.sql for s in statement_pool(catalog, 6, seed=3)]
    other = [s.sql for s in statement_pool(catalog, 6, seed=4)]
    assert first == again
    assert first != other
    assert len(set(first)) == 6


def _fake_pool(n: int) -> list[Statement]:
    return [Statement(f"select {i}", [SimpleNamespace(label=f"p{i}")])
            for i in range(n)]


def _draws(workload: str, seed: int, n: int = 300) -> list[tuple]:
    stream = RequestStream(WORKLOADS[workload], _fake_pool(16), seed)
    return [(r.statement, r.profile) for r in
            (stream.next() for _ in range(n))]


@pytest.mark.parametrize("workload", ["select_hot", "advise_grid"])
def test_request_stream_is_deterministic_per_seed(workload):
    assert _draws(workload, 5) == _draws(workload, 5)
    assert _draws(workload, 5) != _draws(workload, 6)


def test_zipf_stream_is_skewed_and_grid_stream_carries_all_profiles():
    counts = np.bincount([s for s, _ in _draws("select_hot", 1, 4000)],
                         minlength=16)
    assert counts.max() > 4 * counts.min()
    assert counts.max() / 4000 > 0.25          # rank 1 of Zipf(1.1) over 16
    grid = RequestStream(WORKLOADS["advise_grid"], _fake_pool(4), 1).next()
    assert grid.profile is None and b'"profiles"' in grid.body


def test_poisson_schedule_is_deterministic_and_has_the_rate():
    a = poisson_schedule(8.0, 500.0, seed=9)
    assert np.array_equal(a, poisson_schedule(8.0, 500.0, seed=9))
    assert not np.array_equal(a, poisson_schedule(8.0, 500.0, seed=10))
    assert np.all(np.diff(a) > 0) and 0.0 <= a[0] and a[-1] < 500.0
    assert len(a) == 4000                    # conditioned on the count
    gaps = np.diff(a)                        # ~ exponential(1/8)
    assert abs(gaps.mean() - 0.125) < 0.01
    assert abs(gaps.std() / gaps.mean() - 1.0) < 0.1
    assert not np.array_equal(a, poisson_schedule(8.0, 500.0, 9, stream=5))


def test_runtime_noise_is_seeded_lognormal():
    noise = runtime_noise(20000, seed=2)
    assert np.array_equal(noise, runtime_noise(20000, seed=2))
    assert abs(np.median(noise) - 1.0) < 0.02
    assert abs(np.std(np.log(noise)) - 0.3) < 0.01


# -- percentile and lateness math ----------------------------------------------

def test_percentile_interpolates_like_numpy():
    values = list(range(1, 101))
    assert percentile(values, 50) == 50.5
    assert percentile(values, 99) == pytest.approx(99.01)
    assert percentile(values, 0) == 1 and percentile(values, 100) == 100
    rng = np.random.default_rng(0)
    sample = rng.lognormal(size=1001).tolist()
    for q in (50, 90, 99, 99.9):
        assert percentile(sample, q) == pytest.approx(np.percentile(sample, q))
    assert percentile([7.0], 99) == 7.0
    with pytest.raises(ValueError):
        percentile([], 50)


def test_p99_of_a_thousand_samples_has_ten_beyond_it():
    values = [float(v) for v in range(1000)]
    assert beyond(values, percentile(values, 99)) == 10


def test_lateness_counts_from_due_time_and_never_negative():
    assert lateness([0.0, 1.0, 2.0], [0.5, 0.9, 2.25]) == [0.5, 0.0, 0.25]
    with pytest.raises(ValueError):
        lateness([0.0], [])


def test_quartiles_spread_and_worse_by():
    values = [10.0, 11.0, 12.0, 13.0, 14.0, 15.0, 16.0, 17.0, 18.0, 19.0]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    q1, q2, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / q2)
    assert worse_by(100.0, 110.0, "lower") == pytest.approx(0.10)
    assert worse_by(100.0, 110.0, "higher") == pytest.approx(-0.10)


# -- the oracle ----------------------------------------------------------------

class _Reference:
    """Synthetic per-kind grids: raal = 1 + plan + profile/10, gpsj = x10."""

    def grid(self, kind, plans, profiles):
        base = np.array([[1.0 + i + j / 10.0 for i in range(len(plans))]
                         for j in range(len(profiles))])
        return {"raal": base, "gpsj": base * 10.0,
                "heuristic": base * 100.0}[kind]


def _oracle():
    plans = [SimpleNamespace(label=f"plan{i}") for i in range(3)]
    pool = [Statement("select 1", plans)]
    profiles = [{"executors": 2, "memory_gb": 2}, {"executors": 4}]
    return Oracle(_Reference(), pool, profiles)


def _predict_answer(costs, source="raal", reason=None):
    labels = [f"plan{i}" for i in range(len(costs))]
    return {"source": source, "reason": reason,
            "chosen": labels[int(np.argmin(costs))],
            "plans": [{"plan": p, "seconds": c, "feedback_index": i}
                      for i, (p, c) in enumerate(zip(labels, costs))]}


def test_served_tier_reads_provenance():
    assert served_tier("raal", None) == "f64"
    assert served_tier("raal", "raal: degraded_precision:int8") == "int8"
    assert served_tier("gpsj", "raal: ladder in fallback") == "gpsj"
    assert served_tier("heuristic", "x") == "heuristic"
    assert served_tier("mystery", None) is None


def test_oracle_accepts_exact_answers_and_rejects_a_perturbed_cost():
    oracle = _oracle()
    assert oracle.check_predict(0, 1, _predict_answer([1.1, 2.1, 3.1])) is None
    perturbed = _predict_answer([1.1, 2.1 * (1 + 1e-4), 3.1])
    assert "f64 answer off" in oracle.check_predict(0, 1, perturbed)


def test_oracle_rejects_a_wrong_tier_answer():
    oracle = _oracle()
    gpsj_costs = [11.0, 21.0, 31.0]
    # Analytic costs passed off as the learned f64 answer.
    assert oracle.check_predict(0, 1, _predict_answer(gpsj_costs)) is not None
    assert oracle.check_predict(
        0, 1, _predict_answer(gpsj_costs, source="gpsj")) is None
    # int8 answers may drift within 5% of f64, not beyond.
    int8 = "raal: degraded_precision:int8"
    assert oracle.check_predict(
        0, 0, _predict_answer([1.03, 2.0, 3.0], reason=int8)) is None
    assert oracle.check_predict(
        0, 0, _predict_answer([1.08, 2.0, 3.0], reason=int8)) is not None
    assert "unknown provenance" in oracle.check_predict(
        0, 0, _predict_answer([1.0, 2.0, 3.0], source="mystery"))


def test_oracle_checks_labels_chosen_plan_and_grid_shape():
    oracle = _oracle()
    answer = _predict_answer([1.0, 2.0, 3.0])
    answer["chosen"] = "plan2"
    assert "chosen" in oracle.check_predict(0, 0, answer)
    answer = _predict_answer([1.0, 2.0, 3.0])
    answer["plans"][0]["plan"] = "other"
    assert "labels" in oracle.check_predict(0, 0, answer)
    grid = {"source": "raal", "reason": None,
            "plans": ["plan0", "plan1", "plan2"], "profiles": 2,
            "costs": [[1.0, 2.0, 3.0], [1.1, 2.1, 3.1]]}
    assert oracle.check_grid(0, grid) is None
    assert "profiles" in oracle.check_grid(0, dict(grid, profiles=1))
    assert "shape" in oracle.check_grid(0, dict(grid, costs=[[1.0, 2.0]]))


def test_oracle_checks_the_recorded_q_error():
    assert Oracle.check_feedback(1.25, {"q_error": 1.25}) is None
    assert Oracle.check_feedback(0.8, {"q_error": 1.25}) is None
    assert Oracle.check_feedback(1.25, {"q_error": 1.3}) is not None


def test_lost_feedback_is_counted_but_not_a_failure():
    from client import Op
    from run import Window, score

    answer = _predict_answer([1.1, 2.1, 3.1])
    request = SimpleNamespace(statement=0, profile=1)
    replies = [{"recorded": True, "q_error": 1.25},
               {"recorded": False, "q_error": None},
               {"q_error": None}]
    ops = []
    for i, reply in enumerate(replies):
        op = Op(i, due=float(i), factor=1.25, started=float(i), done=i + 0.5)
        op.predict = Sample("/v1/predict", request, 5000, 2 * i + 1, i,
                            i + 0.2, 200, json.dumps(answer).encode())
        op.answer = answer
        op.feedback = Sample("/v1/feedback", None, 5000, 2 * i + 2, i + 0.2,
                             i + 0.5, 200, json.dumps(reply).encode())
        ops.append(op)
    window = Window(WORKLOADS["feedback_loop"], 3.0)
    window.ops = ops
    result = score(window, _oracle())
    assert (result.attempted, result.failed) == (3, 1)
    assert (result.feedback_sent, result.feedback_recorded,
            result.feedback_lost) == (3, 1, 1)
    assert result.rejected == ["feedback answer has no 'recorded' flag"]


# -- attribution ---------------------------------------------------------------

def test_attribution_decomposes_one_request_without_remainder():
    ms = 1_000_000
    request = ["r", 5000, 1]
    spans = [
        ("http.dispatch", 0, 10 * ms, 1, request, "/v1/predict"),
        ("http.json", 0, 1 * ms, 1, request, None),
        ("service", 1 * ms, 9 * ms, 1, request, None),
        ("batch.submit", 2 * ms, 8 * ms, 1, request, None),
        ("guard", 3 * ms, 7 * ms, 2, ["b", 1], [4, "f64"]),
        ("encode", 3 * ms, 4 * ms, 2, ["b", 1], 4),
        ("forward", 4 * ms, 6 * ms, 2, ["b", 1], 4),
    ]
    doc = {"spans": spans, "batches": [[1, 3 * ms, 7 * ms, [[request, 4]]]]}
    sample = Sample("/v1/predict", None, 5000, 1, 0.0, 0.012, 200, b"")
    window = SimpleNamespace(samples=[sample], ops=[], metrics_before="",
                             metrics_after="")
    result = SimpleNamespace(attempted=1, failed=0, tier_pairs={"f64": 4},
                             pairs=4, lateness_ms=[], latencies_ms=[12.0])
    layers = {k: v for k, (v, _) in
              layer_metrics(window, result, doc, untraced_p50=12.0).items()}
    assert layers["http.wire_ms"] == pytest.approx(2.0)
    assert layers["http.json_ms"] == pytest.approx(1.0)
    assert layers["service.self_ms"] == pytest.approx(2.0)
    assert layers["batch.wait_ms"] == pytest.approx(2.0)
    assert layers["encode.ms"] == pytest.approx(1.0)
    assert layers["forward.ms"] == pytest.approx(2.0)
    assert layers["guard.self_ms"] == pytest.approx(1.0)
    assert layers["forward.us_per_pair"] == pytest.approx(500.0)
    assert layers["guard.tier_share.f64"] == 1.0
    assert layers["trace.unattributed_share"] == pytest.approx(1.0 / 12.0)
    assert layers["trace.overhead_pct"] == 0.0


# -- contract ------------------------------------------------------------------

def test_run_refuses_without_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select_hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
