"""Prediction-quality observability harness: drift in, drift out.

Drives the guarded predictor with the full quality loop armed —
:class:`AccuracyTracker` + :class:`DriftDetector`, per-prediction
:class:`AuditTrail`, and burn-rate :class:`SLOTracker` — through three
phases of a closed feedback loop where the dataset's recorded runtimes
play the ground truth:

1. **healthy** — serve and observe ``FEEDBACK`` queries with the
   trained model: the tracker's reference window captures the model's
   native q-error distribution and the detector stays ``stable``.
2. **drift** — a ``FaultInjector`` zeroes ``CORRUPT_FRACTION`` of every
   parameter (finite corruption: the model keeps answering, it is just
   *wrong*), shifting the geometric-mean q-error severalfold. The gate:
   the detector must flip to ``drift`` within ``DETECT_GATE`` feedback
   samples, emit ``drift_detected``, open the learned-stage gate with
   cause ``drift``, and burn the q-error SLO budget into alert.
3. **recovery** — weights restored, the gate's cooldown probe starts
   letting learned answers (and thus feedback) through again; once the
   current window flushes, the detector must emit ``drift_recovered``
   within ``RECOVERY_TIMEOUT_S``.

Results go to ``BENCH_quality.json``. Two artifacts land under
``benchmarks/results/`` for the CLI smoke tests: the raw telemetry
event stream (``quality_events.jsonl`` — input to ``repro audit``) and
the final telemetry report (``quality_report.json`` — input to
``repro top --once``).

Scale knobs: ``REPRO_BENCH_QUALITY_FEEDBACK`` (healthy feedback
samples, default 96), ``REPRO_BENCH_QUALITY_WINDOW`` /
``REPRO_BENCH_QUALITY_CURRENT`` (reference/current window sizes),
``REPRO_BENCH_QUALITY_DETECT_GATE`` (max drifting samples before
detection, default 2x the current window),
``REPRO_BENCH_QUALITY_CORRUPT_FRACTION`` (default 0.35), and
``REPRO_BENCH_QUALITY_RECOVERY_TIMEOUT_S`` (default 30).
"""

from __future__ import annotations

import os
import pathlib
import time

import numpy as np

from benchmarks.conftest import RESULTS_DIR, get_fixed_pipeline, publish
from benchmarks.runmeta import write_bench_json
from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core import CostPredictor
from repro.eval import render_table
from repro.nn import invalidate_inference_cache
from repro.obs.audit import AuditTrail
from repro.obs.quality import (
    DRIFT,
    STABLE,
    AccuracyTracker,
    DriftConfig,
    DriftDetector,
    QualityConfig,
)
from repro.obs.slo import SLO, BurnRateConfig, SLOTracker
from repro.reliability import OPEN, BreakerConfig, GuardedCostPredictor
from tests.faults import FaultInjector

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_quality.json"
EVENTS_PATH = RESULTS_DIR / "quality_events.jsonl"
REPORT_PATH = RESULTS_DIR / "quality_report.json"

FEEDBACK = int(os.environ.get("REPRO_BENCH_QUALITY_FEEDBACK", "96"))
REFERENCE_WINDOW = int(os.environ.get("REPRO_BENCH_QUALITY_WINDOW", "48"))
CURRENT_WINDOW = int(os.environ.get("REPRO_BENCH_QUALITY_CURRENT", "24"))
DETECT_GATE = int(os.environ.get("REPRO_BENCH_QUALITY_DETECT_GATE",
                                 str(2 * CURRENT_WINDOW)))
CORRUPT_FRACTION = float(
    os.environ.get("REPRO_BENCH_QUALITY_CORRUPT_FRACTION", "0.35"))
RECOVERY_TIMEOUT_S = float(
    os.environ.get("REPRO_BENCH_QUALITY_RECOVERY_TIMEOUT_S", "30"))
#: Drifting feedback samples fed after detection: the burn-rate SLO is
#: (by design) blind to a blip the size of the detection window, so the
#: harness sustains the badness long enough for both burn windows.
SUSTAIN = int(os.environ.get("REPRO_BENCH_QUALITY_SUSTAIN",
                             str(DETECT_GATE)))

#: Q-error above which a feedback sample spends SLO error budget. Set
#: well past the model's native p95 so the healthy phase cannot burn.
QERROR_SLO_THRESHOLD = 10.0


def _qstats(samples: list[float]) -> dict:
    arr = np.asarray(samples)
    return {"count": int(arr.size),
            "mean": float(arr.mean()),
            "p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95))}


def test_quality_observability():
    pipeline = get_fixed_pipeline("imdb")
    trained = pipeline.train_variant("RAAL", epochs=4)
    base = CostPredictor(trained.encoder, trained.trainer)
    model = trained.trainer.model
    gpsj = GPSJCostModel(pipeline.catalog)

    # Ground truth comes from the dataset's recorded runtimes. Sample
    # the test split randomly so reference and current windows draw
    # from the same plan distribution — q-error is plan-dependent, and
    # feeding the split in order would make the windows systematically
    # different even with a healthy model.
    rng = np.random.default_rng(11)
    test_records = pipeline.split.test

    def records():
        while True:
            yield test_records[int(rng.integers(0, len(test_records)))]

    records = records()

    drift_detector = DriftDetector(DriftConfig(
        reference_window=REFERENCE_WINDOW, current_window=CURRENT_WINDOW,
        min_samples=max(CURRENT_WINDOW // 2, 4), ratio_threshold=2.0,
        recover_ratio=1.2, consecutive=3, hold_seconds=0.0))
    quality = AccuracyTracker(QualityConfig(window=CURRENT_WINDOW),
                              drift=drift_detector)
    slo = SLOTracker(
        [SLO("latency", threshold=0.5, objective=0.9),
         SLO("qerror", threshold=QERROR_SLO_THRESHOLD, objective=0.8)],
        BurnRateConfig(fast_window_seconds=15.0, slow_window_seconds=60.0,
                       fast_burn=1.0, slow_burn=1.0))
    # A 50 ms cooldown lets the recovery phase probe the restored model
    # (one learned answer, one feedback sample) every 50 ms while the
    # detector's current window flushes. No deadline: this harness
    # exercises the accuracy-drift trip, not the latency one.
    guard = GuardedCostPredictor(
        base, gpsj=gpsj, breaker_config=BreakerConfig(cooldown_seconds=0.05),
        quality=quality, audit=AuditTrail(capacity=4096), slo=slo,
        workload="imdb")
    gate = guard.breakers["raal"]
    gate_history: list[dict] = []
    telemetry_hook = gate.on_transition

    def record_transition(old: str, new: str) -> None:
        gate_history.append({"old": old, "new": new, "cause": gate.cause})
        telemetry_hook(old, new)

    gate.on_transition = record_transition

    # Serves the sustain phase: its own gate is never tripped, so the
    # learned stage keeps answering (and feedback keeps flowing) while
    # the main guard's gate is open — the shape of feedback for queries
    # that were served before a trip. It shares the audit trail, quality
    # tracker and SLO tracker, and every observation is closed through
    # the main guard, whose drift coupling keeps re-tripping its gate.
    ungated = GuardedCostPredictor(
        base, gpsj=gpsj, quality=quality, audit=guard.audit, slo=slo,
        workload="imdb")

    def feed_one(server: GuardedCostPredictor = guard,
                 ) -> tuple[str, float | None]:
        """Serve the next query through ``server``, then close its
        feedback loop through the main guard."""
        record = next(records)
        explained = server.predict_many_explained(
            [(record.plan, record.resources)])
        qe = None
        if explained.request_id is not None:
            qe = guard.record_observation(explained.request_id,
                                          record.cost_seconds)
        return explained.source, qe

    results: dict = {"config": {
        "feedback": FEEDBACK, "reference_window": REFERENCE_WINDOW,
        "current_window": CURRENT_WINDOW, "detect_gate": DETECT_GATE,
        "corrupt_fraction": CORRUPT_FRACTION,
        "sustain": SUSTAIN,
        "qerror_slo_threshold": QERROR_SLO_THRESHOLD,
        "recovery_timeout_s": RECOVERY_TIMEOUT_S,
    }}

    EVENTS_PATH.parent.mkdir(parents=True, exist_ok=True)
    telemetry = obs.Telemetry.create(events_path=str(EVENTS_PATH),
                                     event_capacity=16384)
    try:
        with obs.attached(telemetry):
            # -- phase 1: healthy feedback loop ------------------------
            guard.predict(*(lambda r: (r.plan, r.resources))(
                pipeline.split.test[0]))  # warm caches + pools
            healthy_q: list[float] = []
            for _ in range(FEEDBACK):
                source, qe = feed_one()
                assert source == "raal", source
                if qe is not None:
                    healthy_q.append(qe)
            results["healthy"] = {
                "qerror": _qstats(healthy_q),
                "drift_state": drift_detector.state,
                "gate": gate.state,
            }
            assert drift_detector.state == STABLE, drift_detector.snapshot()

            # -- phase 2: inject accuracy drift ------------------------
            injector = FaultInjector(seed=7)
            saved = [p.data.copy() for _, p in model.named_parameters()]
            injector.corrupt_weights(model, fraction=CORRUPT_FRACTION,
                                     value=0.0)
            invalidate_inference_cache(model)
            drift_q: list[float] = []
            samples_to_detect = None
            detect_started = time.perf_counter()
            for attempt in range(DETECT_GATE * 4):
                source, qe = feed_one()
                if qe is not None:
                    drift_q.append(qe)
                if drift_detector.state == DRIFT:
                    samples_to_detect = len(drift_q)
                    break
            detect_seconds = time.perf_counter() - detect_started
            # Sustain the drifting feedback past the detection blip:
            # the burn-rate SLO needs both windows burning, and the gate
            # (already open) must stay re-tripped.
            for _ in range(SUSTAIN if samples_to_detect is not None else 0):
                _, qe = feed_one(ungated)
                if qe is not None:
                    drift_q.append(qe)
            results["drift"] = {
                "qerror": _qstats(drift_q) if drift_q else None,
                "samples_to_detect": samples_to_detect,
                "detect_seconds": detect_seconds,
                "detector": drift_detector.snapshot(),
                "gate": gate.state,
                "gate_cause": gate.cause,
                "gate_history": list(gate_history),
                "slo_alerting": slo.alerting(),
            }

            # -- phase 3: restore weights, wait for recovery -----------
            for (_, p), data in zip(model.named_parameters(), saved):
                p.data[...] = data
            invalidate_inference_cache(model)
            recovery_q: list[float] = []
            recovery_started = time.perf_counter()
            recovered_at = None
            while time.perf_counter() - recovery_started < RECOVERY_TIMEOUT_S:
                source, qe = feed_one()
                if qe is not None:
                    recovery_q.append(qe)
                if drift_detector.state == STABLE:
                    recovered_at = time.perf_counter() - recovery_started
                    break
                if source != "raal":
                    # Fallback-served: no feedback flows; give the
                    # gate's cooldown a moment to elapse.
                    time.sleep(0.01)
            results["recovery"] = {
                "qerror": _qstats(recovery_q) if recovery_q else None,
                "seconds_to_recover": recovered_at,
                "feedback_samples": len(recovery_q),
                "detector": drift_detector.snapshot(),
                "gate": gate.state,
            }

            results["counters"] = {
                name: telemetry.registry.get(name).value
                for name in ("quality.feedback_total",
                             "quality.drift_detected_total",
                             "quality.drift_recovered_total",
                             "gate.drift_trips_total",
                             "audit.records_total",
                             "audit.observations_total",
                             "slo.alerts_total")
                if telemetry.registry.get(name) is not None
            }
            results["audit"] = guard.audit.snapshot()
            results["events"] = {
                "drift_detected": len(
                    telemetry.events.events("quality", "drift_detected")),
                "drift_recovered": len(
                    telemetry.events.events("quality", "drift_recovered")),
                "burn_alerts": len(
                    telemetry.events.events("slo", "burn_alert")),
            }
            report = obs.TelemetryReport.from_telemetry(telemetry)
    finally:
        telemetry.close()
        guard.close()
        ungated.close()
    report.write(REPORT_PATH)

    write_bench_json(BENCH_JSON, results)

    healthy = results["healthy"]["qerror"]
    drifted = results["drift"]["qerror"] or {"mean": float("nan"),
                                             "p95": float("nan")}
    recovered = results["recovery"]["qerror"] or {"mean": float("nan"),
                                                  "p95": float("nan")}
    rows = [
        ["healthy", f"{healthy['mean']:.2f}", f"{healthy['p95']:.2f}",
         results["healthy"]["drift_state"], results["healthy"]["gate"]],
        ["drift", f"{drifted['mean']:.2f}", f"{drifted['p95']:.2f}",
         f"detected@{results['drift']['samples_to_detect']}",
         f"{results['drift']['gate']} ({results['drift']['gate_cause']})"],
        ["recovery", f"{recovered['mean']:.2f}", f"{recovered['p95']:.2f}",
         results["recovery"]["detector"]["state"],
         results["recovery"]["gate"]],
    ]
    publish("quality_obs", render_table(
        f"Prediction-quality observability ({CORRUPT_FRACTION:.0%} weight "
        f"corruption; gate {DETECT_GATE} samples)",
        ["phase", "qerr mean", "qerr p95", "detector", "gate"], rows))

    # -- gates ----------------------------------------------------------
    assert samples_to_detect is not None, \
        f"drift never detected: {drift_detector.snapshot()}"
    assert samples_to_detect <= DETECT_GATE, results["drift"]
    assert results["events"]["drift_detected"] >= 1, results["events"]
    assert results["drift"]["gate"] == OPEN, results["drift"]
    assert results["drift"]["gate_cause"] == "drift", results["drift"]
    assert any(t["new"] == OPEN and t["cause"] == "drift"
               for t in results["drift"]["gate_history"]), results["drift"]
    assert "qerror" in results["drift"]["slo_alerting"], results["drift"]
    assert results["recovery"]["seconds_to_recover"] is not None, \
        results["recovery"]
    assert results["events"]["drift_recovered"] >= 1, results["events"]
