"""Unit and integration tests for prediction-quality observability.

Covers ``repro.obs.quality`` (q-error math, the per-scope q-error
quantiles, the accuracy tracker, the drift detector's hysteretic state machine),
``repro.obs.audit`` (bounded ring, ground-truth attachment, JSONL
round-trips), ``repro.obs.slo`` (multi-window multi-burn-rate
alerting), the Chrome trace exporter, and the guarded predictor's
feedback loop (audit → quality → drift → gate coupling) end to end
on a tiny trained model.
"""

from __future__ import annotations

import json
import math

import numpy as np
import pytest

from repro import obs
from repro.errors import TelemetryError
from repro.obs import (
    DRIFT,
    RELATIVE_ACCURACY,
    SLO,
    STABLE,
    AccuracyTracker,
    AuditTrail,
    BurnRateConfig,
    DriftConfig,
    DriftDetector,
    Histogram,
    QualityConfig,
    SLOTracker,
    Telemetry,
    chrome_trace,
    load_audit_records,
    q_error,
)


class FakeClock:
    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- q-error ----------------------------------------------------------------
class TestQError:
    def test_symmetric_and_floored_at_one(self):
        assert q_error(2.0, 4.0) == pytest.approx(2.0)
        assert q_error(4.0, 2.0) == pytest.approx(2.0)
        assert q_error(3.0, 3.0) == pytest.approx(1.0)

    def test_non_positive_inputs_stay_finite(self):
        assert math.isfinite(q_error(0.0, 1.0))
        assert q_error(0.0, 1.0) > 1e6

    def test_non_finite_inputs_are_nan(self):
        assert math.isnan(q_error(math.nan, 1.0))
        assert math.isnan(q_error(1.0, math.inf))


# -- per-scope quantiles ----------------------------------------------------
class TestScopeQuantiles:
    """Each tracker scope's p50/p95 come from one metrics sketch, within
    1 % of the nearest-rank q-error x_(floor(q(n-1)))."""

    def test_small_sample_within_bound(self):
        tracker = AccuracyTracker()
        for qe in (3.0, 1.0, 2.0):
            tracker.record(1.0, qe)
        overall = tracker.snapshot()["overall"]
        # n = 3: p50 and p95 both stand for the middle sample, 2.0.
        assert overall["p50"] == pytest.approx(2.0, rel=RELATIVE_ACCURACY)
        assert overall["p95"] == pytest.approx(2.0, rel=RELATIVE_ACCURACY)

    def test_tracks_known_distribution(self):
        rng = np.random.default_rng(0)
        samples = rng.uniform(1.0, 100.0, size=5000)
        telemetry = Telemetry.create()
        tracker = AccuracyTracker()
        with obs.attached(telemetry):
            for v in samples:
                tracker.record(1.0, float(v), workload="imdb")
        reg = telemetry.registry
        for q, name in ((0.5, "p50"), (0.95, "p95")):
            exact = float(np.quantile(samples, q, method="lower"))
            for scope in ("overall", "by_workload"):
                snap = tracker.snapshot()[scope]
                value = snap[name] if scope == "overall" else snap["imdb"][name]
                assert abs(value - exact) <= RELATIVE_ACCURACY * exact
            assert reg.get(f"quality.qerror_{name}").value == \
                tracker.snapshot()["overall"][name]

    def test_empty_is_nan_and_nan_rejected(self):
        tracker = AccuracyTracker()
        overall = tracker.snapshot()["overall"]
        assert math.isnan(overall["p50"]) and math.isnan(overall["p95"])
        assert math.isnan(overall["mean"])
        assert math.isnan(tracker.record(math.nan, 1.0))
        assert tracker.rejected == 1 and tracker.count == 0
        with pytest.raises(TelemetryError):
            Histogram("qerror").observe(math.nan)


# -- AccuracyTracker --------------------------------------------------------
class TestAccuracyTracker:
    def test_scoped_stats_and_metrics_export(self):
        telemetry = Telemetry.create()
        with obs.attached(telemetry):
            tracker = AccuracyTracker(QualityConfig(window=4))
            tracker.record(1.0, 2.0, workload="imdb")
            tracker.record(1.0, 1.0, workload="imdb")
        snap = tracker.snapshot()
        assert snap["overall"]["count"] == 2
        assert "by_tier" not in snap
        assert snap["by_workload"]["imdb"]["count"] == 2
        assert snap["by_workload"]["imdb"]["last"] == pytest.approx(1.0)
        reg = telemetry.registry
        assert reg.get("quality.feedback_total").value == 2
        assert reg.get("quality.qerror_mean").value == pytest.approx(1.5)
        assert "quality.workload.imdb.qerror_p50" in reg
        assert reg.get("quality.qerror").count == 2

    def test_rolling_window_forgets_old_samples(self):
        tracker = AccuracyTracker(QualityConfig(window=3))
        for _ in range(5):
            tracker.record(1.0, 10.0)
        for _ in range(3):
            tracker.record(1.0, 1.0)
        rolling = tracker.rolling()
        assert rolling["count"] == 3
        assert rolling["mean"] == pytest.approx(1.0)
        # Lifetime stats still remember the bad era.
        assert tracker.snapshot()["overall"]["mean"] > 4.0

    def test_rejects_non_finite_pairs(self):
        telemetry = Telemetry.create()
        with obs.attached(telemetry):
            tracker = AccuracyTracker()
            assert math.isnan(tracker.record(math.nan, 1.0))
        assert tracker.count == 0
        assert tracker.snapshot()["rejected"] == 1
        assert telemetry.registry.get("quality.rejected_total").value == 1

    def test_sanitizes_scope_keys(self):
        tracker = AccuracyTracker()
        tracker.record(1.0, 1.0, workload="join heavy/ad-hoc")
        assert "join_heavy_ad_hoc" in tracker.snapshot()["by_workload"]


# -- DriftDetector ----------------------------------------------------------
def _drift_config(**overrides) -> DriftConfig:
    config = dict(reference_window=8, current_window=8, min_samples=4,
                  ratio_threshold=1.5, recover_ratio=1.2, consecutive=3,
                  hold_seconds=0.0, ph_threshold=0.0)
    config.update(overrides)
    return DriftConfig(**config)


class TestDriftDetector:
    def test_stable_on_consistent_accuracy(self):
        detector = DriftDetector(_drift_config(), clock=FakeClock())
        for _ in range(50):
            assert detector.update(1.1) is None
        assert detector.state == STABLE

    def test_ratio_breach_needs_consecutive_evaluations(self):
        telemetry = Telemetry.create()
        with obs.attached(telemetry):
            detector = DriftDetector(_drift_config(), clock=FakeClock())
            for _ in range(8):
                detector.update(1.1)          # builds the reference
            transitions = [detector.update(8.0) for _ in range(8)]
        assert "drift_detected" in transitions
        # Hysteresis: the first breaching samples do not flip the state.
        first = transitions.index("drift_detected")
        assert first >= 2
        assert detector.state == DRIFT
        assert "ratio breach" in detector.last_reason
        events = telemetry.events.events("quality", "drift_detected")
        assert len(events) == 1
        assert telemetry.registry.get("quality.drift_state").value == 1.0

    def test_single_outlier_does_not_flip(self):
        detector = DriftDetector(_drift_config(), clock=FakeClock())
        for _ in range(8):
            detector.update(1.1)
        detector.update(50.0)                  # one catastrophic sample
        for _ in range(10):
            detector.update(1.1)
        assert detector.state == STABLE

    def test_page_hinkley_catches_slow_creep(self):
        # A drift small enough to stay under the 1.5x window ratio, but
        # persistent: the cumulative PH statistic accumulates it.
        config = _drift_config(ratio_threshold=3.0, recover_ratio=1.05,
                               ph_delta=0.01, ph_threshold=2.0)
        detector = DriftDetector(config, clock=FakeClock())
        for _ in range(8):
            detector.update(1.05)
        transitions = [detector.update(1.45) for _ in range(60)]
        assert "drift_detected" in transitions
        assert "page-hinkley" in detector.last_reason

    def test_recovery_requires_calm_and_dwell_then_rebaselines(self):
        clock = FakeClock()
        detector = DriftDetector(
            _drift_config(hold_seconds=10.0), clock=clock)
        for _ in range(8):
            detector.update(1.0)
        while detector.state == STABLE:
            detector.update(9.0)
        # Calm samples before the dwell elapses must not recover.
        for _ in range(10):
            assert detector.update(1.0) is None
        assert detector.state == DRIFT
        clock.advance(11.0)
        transitions = [detector.update(1.0) for _ in range(10)]
        assert "drift_recovered" in transitions
        assert detector.state == STABLE
        assert detector.recoveries == 1
        # Rebaselined: the recovered accuracy is the new reference, so
        # staying there keeps the detector stable.
        for _ in range(20):
            detector.update(1.0)
        assert detector.state == STABLE

    def test_snapshot_and_reset(self):
        detector = DriftDetector(_drift_config(), clock=FakeClock())
        for _ in range(12):
            detector.update(1.2)
        snap = detector.snapshot()
        assert snap["state"] == STABLE
        assert snap["reference_samples"] == 8
        assert snap["ratio"] == pytest.approx(1.0, abs=0.05)
        detector.reset()
        assert detector.snapshot()["reference_samples"] == 0

    def test_config_validation(self):
        with pytest.raises(TelemetryError):
            DriftConfig(ratio_threshold=0.9)
        with pytest.raises(TelemetryError):
            DriftConfig(recover_ratio=2.0, ratio_threshold=1.5)
        with pytest.raises(TelemetryError):
            DriftConfig(min_samples=99, current_window=8)

    def test_tracker_feeds_detector(self):
        detector = DriftDetector(_drift_config(), clock=FakeClock())
        tracker = AccuracyTracker(QualityConfig(window=8), drift=detector)
        for _ in range(8):
            tracker.record(1.0, 1.0)
        for _ in range(10):
            tracker.record(1.0, 9.0)
        assert tracker.drift.state == DRIFT
        assert "drift" in tracker.snapshot()


# -- AuditTrail -------------------------------------------------------------
class TestAuditTrail:
    def test_record_observe_roundtrip_with_qerror(self):
        trail = AuditTrail(capacity=8, clock=FakeClock(100.0))
        rid = trail.next_request_id()
        assert rid == "req-000001"
        record = trail.record(rid, plan_fingerprint="abc", plan_nodes=5,
                              resources={"executors": 4}, tier="f64",
                              source="raal", latency_seconds=0.01,
                              prediction_seconds=2.0, workload="imdb")
        assert record.ts == 100.0
        updated = trail.observe(rid, 4.0)
        assert updated.observed_seconds == 4.0
        assert updated.q_error == pytest.approx(2.0)
        assert trail.get(rid).q_error == pytest.approx(2.0)

    def test_ring_bounded_with_index_cleanup(self):
        trail = AuditTrail(capacity=3)
        rids = [trail.next_request_id() for _ in range(5)]
        for rid in rids:
            trail.record(rid, prediction_seconds=1.0)
        assert len(trail) == 3
        assert trail.get(rids[0]) is None          # evicted + unindexed
        assert trail.get(rids[-1]) is not None
        # Late feedback for an evicted record is counted, not an error.
        assert trail.observe(rids[0], 1.0) is None
        assert trail.missed == 1

    def test_per_request_cap_truncates_batches(self):
        trail = AuditTrail(capacity=100, per_request_cap=2)
        rid = trail.next_request_id()
        kept = [trail.record(rid, index=i, prediction_seconds=1.0)
                for i in range(5)]
        assert sum(1 for r in kept if r is not None) == 2
        assert trail.truncated == 3
        assert len(trail) == 2

    def test_jsonl_roundtrip(self, tmp_path):
        trail = AuditTrail(capacity=8)
        for _ in range(3):
            rid = trail.next_request_id()
            trail.record(rid, plan_fingerprint="fp", tier="f32",
                         source="raal", prediction_seconds=1.5)
            trail.observe(rid, 3.0)
        path = tmp_path / "audit.jsonl"
        assert trail.write_jsonl(str(path)) == 3
        loaded = load_audit_records(str(path))
        assert [r.request_id for r in loaded] == [
            "req-000001", "req-000002", "req-000003"]
        assert all(r.q_error == pytest.approx(2.0) for r in loaded)

    def test_load_from_telemetry_event_stream(self, tmp_path):
        path = tmp_path / "events.jsonl"
        telemetry = Telemetry.create(events_path=str(path))
        with obs.attached(telemetry):
            trail = AuditTrail(capacity=8)
            rid = trail.next_request_id()
            trail.record(rid, plan_fingerprint="fp", tier="f64",
                         source="raal", prediction_seconds=2.0,
                         resources={"executors": 2})
            trail.observe(rid, 1.0)
            # Unrelated events must not confuse the loader.
            obs.emit_event("trainer", "epoch", loss=0.5)
        telemetry.close()
        records = load_audit_records(str(path))
        assert len(records) == 1
        assert records[0].request_id == rid
        assert records[0].resources == {"executors": 2.0}
        assert records[0].observed_seconds == 1.0
        assert records[0].q_error == pytest.approx(2.0)


# -- SLOTracker -------------------------------------------------------------
def _slo_tracker(clock, **overrides) -> SLOTracker:
    config = dict(fast_window_seconds=10.0, slow_window_seconds=60.0,
                  fast_burn=10.0, slow_burn=5.0)
    config.update(overrides)
    return SLOTracker([SLO("latency", threshold=0.1, objective=0.99)],
                      BurnRateConfig(**config), clock=clock)


class TestSLOTracker:
    def test_healthy_traffic_never_alerts(self):
        clock = FakeClock(1000.0)
        tracker = _slo_tracker(clock)
        for _ in range(200):
            tracker.record("latency", 0.01)
            clock.advance(0.25)
        assert tracker.alerting() == []
        assert tracker.snapshot()["latency"]["burn_fast"] == 0.0

    def test_sustained_badness_fires_once_and_clears(self):
        telemetry = Telemetry.create()
        clock = FakeClock(1000.0)
        with obs.attached(telemetry):
            tracker = _slo_tracker(clock)
            for _ in range(100):
                tracker.record("latency", 0.5)   # 100% bad, burn = 100x
                clock.advance(0.25)
            assert tracker.alerting() == ["latency"]
            snap = tracker.snapshot()["latency"]
            assert snap["alerts"] == 1           # latched, not re-fired
            assert snap["burn_fast"] == pytest.approx(100.0)
            # Healthy traffic drains the fast window; the alert clears.
            for _ in range(100):
                tracker.record("latency", 0.01)
                clock.advance(0.25)
            assert tracker.alerting() == []
        events = telemetry.events
        assert len(events.events("slo", "burn_alert")) == 1
        assert len(events.events("slo", "burn_alert_cleared")) == 1
        assert telemetry.registry.get("slo.alerts_total").value == 1

    def test_short_blip_suppressed_by_slow_window(self):
        clock = FakeClock(1000.0)
        # Long healthy history, then a short 100%-bad blip: the fast
        # window burns but the slow window stays under its threshold.
        tracker = _slo_tracker(clock, slow_burn=50.0)
        for _ in range(230):
            tracker.record("latency", 0.01)
            clock.advance(0.25)
        for _ in range(8):
            tracker.record("latency", 0.5)
            clock.advance(0.25)
        assert tracker.alerting() == []

    def test_evaluate_clears_after_quiet_period(self):
        clock = FakeClock(1000.0)
        tracker = _slo_tracker(clock)
        for _ in range(100):
            tracker.record("latency", 0.5)
            clock.advance(0.25)
        assert tracker.alerting() == ["latency"]
        clock.advance(30.0)                      # fast window drains empty
        tracker.evaluate()
        assert tracker.alerting() == []

    def test_unknown_slo_raises(self):
        tracker = _slo_tracker(FakeClock())
        with pytest.raises(TelemetryError):
            tracker.record("nope", 1.0)


# -- Chrome trace export ----------------------------------------------------
class TestChromeTrace:
    def test_spans_flatten_with_per_root_lanes(self):
        spans = [
            {"name": "req-a", "start": 1.0, "duration": 0.5,
             "annotations": {"pairs": 4},
             "children": [{"name": "encode", "start": 1.1, "duration": 0.2,
                           "annotations": {}, "children": []}]},
            {"name": "req-b", "start": 1.2, "duration": 0.1,
             "annotations": {}, "children": []},
        ]
        doc = chrome_trace(spans)
        events = doc["traceEvents"]
        assert [e["name"] for e in events] == ["req-a", "encode", "req-b"]
        assert all(e["ph"] == "X" for e in events)
        assert events[0]["ts"] == pytest.approx(1.0e6)
        assert events[0]["dur"] == pytest.approx(0.5e6)
        assert events[0]["args"] == {"pairs": 4}
        assert events[1]["tid"] == 0              # child shares its root lane
        assert events[2]["tid"] == 1              # second root gets its own

    def test_unfinished_spans_are_skipped(self):
        spans = [{"name": "active", "start": 1.0, "duration": None,
                  "annotations": {}, "children": []}]
        assert chrome_trace(spans)["traceEvents"] == []

    def test_report_and_cli_round_trip(self, tmp_path, capsys):
        from repro.cli import main

        telemetry = Telemetry.create()
        with obs.attached(telemetry):
            with obs.span("outer"):
                with obs.span("inner"):
                    pass
        report = obs.TelemetryReport.from_telemetry(telemetry)
        artifact = tmp_path / "report.json"
        report.write(artifact)
        assert main(["metrics", str(artifact), "--format", "trace"]) == 0
        doc = json.loads(capsys.readouterr().out)
        names = [e["name"] for e in doc["traceEvents"]]
        assert names == ["outer", "inner"]
        assert doc["displayTimeUnit"] == "ms"


# -- the guarded feedback loop, end to end ----------------------------------
from repro.baselines.gpsj import GPSJCostModel  # noqa: E402
from repro.core.predictor import CostPredictor  # noqa: E402
from repro.eval.experiments import SMOKE, ExperimentPipeline  # noqa: E402
from repro.reliability import (  # noqa: E402
    OPEN,
    BreakerConfig,
    GuardedCostPredictor,
)
from tests.faults import FaultInjector  # noqa: E402


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture(scope="module")
def pair(pipeline):
    record = pipeline.records[0]
    return (record.plan, record.resources)


def _feedback_guard(trained, pipeline, **overrides):
    """A guard with the full quality loop armed on fast windows."""
    drift = DriftDetector(DriftConfig(
        reference_window=8, current_window=8, min_samples=4,
        ratio_threshold=1.5, recover_ratio=1.2, consecutive=3,
        ph_threshold=0.0))
    quality = AccuracyTracker(QualityConfig(window=16), drift=drift)
    slo = SLOTracker(
        [SLO("latency", threshold=10.0, objective=0.9),
         SLO("qerror", threshold=2.0, objective=0.9)],
        BurnRateConfig(fast_window_seconds=60.0, slow_window_seconds=600.0,
                       fast_burn=1.0, slow_burn=1.0))
    kwargs = dict(
        gpsj=GPSJCostModel(pipeline.catalog),
        breaker_config=BreakerConfig(cooldown_seconds=30.0),
        quality=quality, audit=AuditTrail(capacity=64),
        slo=slo, workload="imdb")
    kwargs.update(overrides)
    predictor = CostPredictor(trained.encoder, trained.trainer)
    return GuardedCostPredictor(predictor, **kwargs)


class TestGuardedFeedbackLoop:
    def test_serve_writes_audit_with_request_id(self, trained, pipeline, pair):
        guard = _feedback_guard(trained, pipeline)
        explained = guard.predict_explained(*pair)
        assert explained.source == "raal"
        assert explained.request_id == "req-000001"
        record = guard.audit.get(explained.request_id)
        assert record is not None
        assert record.source == "raal"
        assert record.tier == "f64"
        assert record.workload == "imdb"
        assert record.plan_fingerprint
        assert record.plan_nodes == pair[0].num_nodes
        assert record.resources["executors"] == pair[1].executors
        assert record.prediction_seconds == pytest.approx(explained.seconds)
        assert record.latency_seconds is not None

    def test_record_observation_closes_the_loop(self, trained, pipeline, pair):
        guard = _feedback_guard(trained, pipeline)
        explained = guard.predict_explained(*pair)
        qe = guard.record_observation(explained.request_id,
                                      explained.seconds * 2.0)
        assert qe == pytest.approx(2.0)
        assert guard.quality.count == 1
        snap = guard.quality.snapshot()
        assert snap["by_workload"]["imdb"]["count"] == 1
        # Unknown request ids are counted, not raised.
        assert guard.record_observation("req-999999", 1.0) is None

    def test_batched_request_observed_per_index(self, trained, pipeline):
        guard = _feedback_guard(trained, pipeline)
        pairs = [(r.plan, r.resources) for r in pipeline.records[:3]]
        explained = guard.predict_many_explained(pairs)
        for i in range(len(pairs)):
            qe = guard.record_observation(explained.request_id,
                                          float(explained.costs[i]), index=i)
            assert qe == pytest.approx(1.0)
        assert guard.quality.count == len(pairs)

    def test_drift_opens_the_gate(self, trained, pipeline, pair):
        telemetry = Telemetry.create()
        with obs.attached(telemetry):
            guard = _feedback_guard(trained, pipeline)
            # Healthy feedback builds the reference window.
            for _ in range(8):
                explained = guard.predict_explained(*pair)
                guard.record_observation(explained.request_id,
                                         explained.seconds)
            assert guard.quality.drift.state == STABLE
            # The world shifts: observed runtimes now 8x the prediction.
            served = 0
            gate = guard.breakers["raal"]
            while gate.state != OPEN and served < 20:
                explained = guard.predict_explained(*pair)
                if explained.source != "raal":
                    break
                guard.record_observation(explained.request_id,
                                         explained.seconds * 8.0)
                served += 1
        assert guard.quality.drift.state == DRIFT
        assert (gate.state, gate.cause) == (OPEN, "drift")
        assert telemetry.events.events("quality", "drift_detected")
        assert telemetry.registry.get("gate.drift_trips_total").value == 1
        # While tripped, the chain serves the analytic fallback.
        explained = guard.predict_explained(*pair)
        assert explained.source == "gpsj"
        assert explained.reason == "raal: circuit open (drift)"
        # The q-error SLO burned its budget on the drifting samples.
        assert "qerror" in guard.slo.alerting()
        health = guard.health_state()
        assert health["quality"]["drift"]["state"] == DRIFT
        assert health["slo"]["qerror"]["alerting"] is True
        assert health["audit"]["observed_total"] >= 8

    def test_fallback_answers_skip_quality_but_feed_slo(self, trained,
                                                        pipeline, pair):
        guard = _feedback_guard(trained, pipeline)
        model = guard.predictor.trainer.model
        injector = FaultInjector(seed=3)
        saved = [p.data.copy() for _, p in model.named_parameters()]
        injector.corrupt_weights(model)
        try:
            explained = guard.predict_explained(*pair)
            assert explained.source == "gpsj"
            qe = guard.record_observation(explained.request_id,
                                          explained.seconds * 3.0)
        finally:
            for (_, p), data in zip(model.named_parameters(), saved):
                p.data[...] = data
        # The audit record closed with a q-error and the SLO saw it, but
        # the tracker (which measures the learned model) did not.
        assert qe == pytest.approx(3.0)
        assert guard.quality.count == 0
        assert guard.slo.snapshot()["qerror"]["bad"] == 1

    def test_record_observation_requires_audit(self, trained, pipeline, pair):
        from repro.errors import PredictionError

        guard = _feedback_guard(trained, pipeline, audit=None)
        with pytest.raises(PredictionError, match="AuditTrail"):
            guard.record_observation("req-000001", 1.0)
