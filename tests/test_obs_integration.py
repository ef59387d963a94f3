"""Integration tests: telemetry wired through the real pipeline.

Covers the acceptance path — one guarded prediction under an attached
registry yields a span tree with encode/forward stages plus nonzero
latency histograms exportable as Prometheus text and JSON — and the
fault-injection path: breaker trips and fallbacks surface as structured
events and registry counters.
"""

import json

import numpy as np
import pytest

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core import CostPredictor
from repro.core.trainer import Trainer, TrainerConfig
from repro.core.variants import make_model, variant
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.reliability import BreakerConfig, GuardedCostPredictor
from tests.faults import FaultInjector


class FakeClock:
    """Clock that ticks forward a fixed step on every read."""

    def __init__(self, step: float = 0.5) -> None:
        self.now = 0.0
        self.step = step

    def __call__(self) -> float:
        self.now += self.step
        return self.now


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture()
def fresh_predictor(pipeline, trained, tmp_path):
    """A private predictor per test, safe to corrupt (fresh caches too)."""
    from repro.core import load_predictor, save_predictor

    source = CostPredictor(trained.encoder, trained.trainer)
    save_predictor(source, tmp_path / "model")
    return load_predictor(tmp_path / "model")


@pytest.fixture()
def telemetry():
    """Fresh attached telemetry bundle, detached (restored) afterwards."""
    bundle = obs.Telemetry.create()
    with obs.attached(bundle):
        yield bundle


class TestPredictionSpanTree:
    def test_single_predict_produces_full_span_tree(
            self, fresh_predictor, pipeline, telemetry):
        record = pipeline.records[0]
        seconds = fresh_predictor.predict(record.plan, record.resources)
        assert np.isfinite(seconds)

        root = telemetry.tracer.last_root()
        assert root.name == "predict"
        assert root.duration > 0
        encode = root.find("encode")
        forward = root.find("forward")
        assert encode is not None and forward is not None
        assert forward.find("forward_inference") is not None
        assert encode.annotations["pairs"] == 1
        assert forward.annotations["plans"] == 1

        reg = telemetry.registry
        assert reg.counter("predict.requests_total").value == 1
        assert reg.counter("predict.pairs_total").value == 1
        latency = reg.histogram("predict.latency_seconds").snapshot()
        fwd = reg.histogram("predict.forward_seconds").snapshot()
        assert latency["count"] == 1 and latency["sum"] > 0
        assert fwd["count"] == 1 and fwd["sum"] > 0

        # Both export formats carry the histograms out.
        prom = reg.to_prometheus()
        assert 'predict_latency_seconds_bucket{le="+Inf"} 1' in prom
        assert "predict_forward_seconds_count 1" in prom
        doc = json.loads(reg.to_json())
        assert doc["metrics"]["predict.latency_seconds"]["count"] == 1

    def test_encoder_cache_metrics(self, fresh_predictor, pipeline, telemetry):
        record = pipeline.records[0]
        pair = [(record.plan, record.resources)]
        fresh_predictor.predict_many(pair)
        fresh_predictor.predict_many(pair)
        reg = telemetry.registry
        assert reg.counter("encoder.cache.misses").value == 1
        assert reg.counter("encoder.cache.hits").value == 1
        root = telemetry.tracer.last_root()
        assert root.find("encode").annotations["cache_hits"] == 1
        info = fresh_predictor.encoder.cache_info()
        assert (info.hits, info.misses) == (1, 1)

    def test_cache_eviction_counter_and_event(
            self, fresh_predictor, pipeline, telemetry):
        fresh_predictor.encoder.cache_size = 1
        fresh_predictor.encoder.cache_clear()
        plans = [r.plan for r in pipeline.records[:3]]
        resources = pipeline.records[0].resources
        fresh_predictor.predict_many([(p, resources) for p in plans])
        assert telemetry.registry.counter("encoder.cache.evictions").value > 0
        assert fresh_predictor.encoder.cache_info().evictions > 0
        evicts = telemetry.events.events(component="encoder",
                                         event="cache_evict")
        assert evicts and evicts[0]["capacity"] == 1

    def test_predict_grid_span_and_counter(
            self, fresh_predictor, pipeline, telemetry):
        plans = [pipeline.records[0].plan, pipeline.records[1].plan]
        profiles = [pipeline.records[0].resources, pipeline.records[1].resources]
        grid = fresh_predictor.predict_grid(plans, profiles)
        assert grid.shape == (len(profiles), len(plans))
        root = telemetry.tracer.last_root()
        assert root.name == "predict_grid"
        assert root.annotations == {"plans": 2, "profiles": 2}
        assert telemetry.registry.counter("predict.grids_total").value == 1

    def test_detached_prediction_leaves_no_trace(self, fresh_predictor, pipeline):
        previous = obs.detach()
        try:
            record = pipeline.records[0]
            seconds = fresh_predictor.predict(record.plan, record.resources)
            assert np.isfinite(seconds)
            assert not obs.enabled()
        finally:
            if previous is not None:
                obs.attach(previous)


class TestGuardTelemetry:
    def make_guard(self, predictor, pipeline, threshold=2):
        return GuardedCostPredictor(
            predictor,
            gpsj=GPSJCostModel(pipeline.catalog),
            breaker_config=BreakerConfig(failure_threshold=threshold,
                                         cooldown_seconds=30.0),
        )

    def test_healthy_guarded_predict_annotates_source(
            self, fresh_predictor, pipeline, telemetry):
        guard = self.make_guard(fresh_predictor, pipeline)
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "raal"
        root = telemetry.tracer.last_root()
        assert root.name == "guarded_predict"
        assert root.annotations["source"] == "raal"
        assert root.annotations["degraded"] is False
        # The stage's encode/forward spans nest under the guard span.
        assert root.find("encode") is not None
        assert root.find("forward") is not None
        reg = telemetry.registry
        assert reg.counter("guard.requests_total").value == 1
        assert reg.counter("guard.raal.served_total").value == 1
        assert "guard.degraded_total" not in reg

    def test_fault_injection_breaker_trip_emits_events(
            self, fresh_predictor, pipeline, telemetry):
        guard = self.make_guard(fresh_predictor, pipeline, threshold=2)
        FaultInjector().force_encode_errors(guard.encoder)
        record = pipeline.records[0]
        pair = [(record.plan, record.resources)]

        for _ in range(3):  # two failures trip the breaker; third skips it
            assert guard.predict_many_explained(pair).source == "gpsj"

        events = telemetry.events
        failures = events.events(component="guard", event="stage_failure")
        assert len(failures) == 2
        assert failures[0]["stage"] == "raal"
        assert "injected encode fault" in failures[0]["error"]

        transitions = events.events(component="guard",
                                    event="breaker_transition")
        assert [(t["old"], t["new"]) for t in transitions] == \
            [("closed", "open")]
        fallbacks = events.events(component="guard", event="fallback")
        assert len(fallbacks) == 3
        assert {f["source"] for f in fallbacks} == {"gpsj"}

        reg = telemetry.registry
        assert reg.counter("guard.raal.failures_total").value == 2
        assert reg.counter("guard.raal.skipped_open_total").value == 1
        assert reg.counter("guard.raal.breaker_transitions_total").value == 1
        assert reg.counter("guard.degraded_total").value == 3
        assert reg.counter("guard.gpsj.served_total").value == 3

    def test_rejected_input_event(self, fresh_predictor, pipeline, telemetry):
        fresh_predictor.encoder.structure.max_nodes = 1
        guard = self.make_guard(fresh_predictor, pipeline)
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        (event,) = telemetry.events.events(component="guard",
                                           event="rejected_input")
        assert "max_nodes" in event["reason"]
        assert telemetry.registry.counter(
            "guard.raal.rejected_input_total").value == 1
        # Rejection is not a stage failure: breaker stays closed.
        assert "guard.raal.breaker_transitions_total" not in telemetry.registry


class TestTrainerTelemetry:
    def test_epoch_seconds_with_injected_clock(self, pipeline, telemetry):
        spec = variant("RAAL")
        samples = pipeline.samples_for(spec, "train")[:12]
        model = make_model(spec, pipeline.base_model_config(spec))
        trainer = Trainer(model, TrainerConfig(epochs=2, batch_size=8, seed=0),
                          clock=FakeClock(step=0.25))
        result = trainer.fit(samples)
        assert len(result.epoch_seconds) == len(result.train_losses) == 2
        assert all(s > 0 for s in result.epoch_seconds)
        assert result.train_seconds >= sum(result.epoch_seconds)

        epochs = telemetry.events.events(component="trainer", event="epoch")
        assert [e["epoch"] for e in epochs] == [0, 1]
        assert all(np.isfinite(e["train_loss"]) for e in epochs)
        assert all(e["seconds"] > 0 for e in epochs)
        (done,) = telemetry.events.events(component="trainer",
                                          event="fit_complete")
        assert done["epochs"] == 2

        reg = telemetry.registry
        hist = reg.histogram("train.epoch_seconds").snapshot()
        assert hist["count"] == 2
        assert reg.gauge("train.epochs_run").value == 2

    def test_experiment_pipeline_surfaces_epoch_seconds(self, trained):
        assert len(trained.epoch_seconds) == len(trained.train_losses)
        assert trained.train_seconds > 0


class TestReportEndToEnd:
    def test_report_from_live_run_renders_and_round_trips(
            self, fresh_predictor, pipeline, telemetry, tmp_path):
        record = pipeline.records[0]
        fresh_predictor.predict(record.plan, record.resources)
        report = obs.TelemetryReport.from_telemetry(telemetry)
        assert "predict.requests_total" in report.metrics
        assert report.spans and report.spans[-1]["name"] == "predict"
        text = report.render()
        assert "predict.latency_seconds" in text
        path = tmp_path / "report.json"
        report.write(path)
        loaded = obs.load_report(path)
        assert loaded.metrics == report.metrics
