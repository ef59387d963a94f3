"""Unit tests for the observability layer (repro.obs)."""

import json
import logging
import math
import threading

import pytest

from repro import obs
from repro.obs import events as events_module
from repro.errors import TelemetryError
from repro.obs import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    EventLog,
    Gauge,
    Histogram,
    MetricsRegistry,
    Telemetry,
    TelemetryReport,
    Tracer,
    load_report,
    prometheus_from_snapshot,
)


class FakeClock:
    """Deterministic monotonic clock for span/epoch timing tests."""

    def __init__(self, start: float = 0.0) -> None:
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


class TestCounter:
    def test_starts_at_zero_and_accumulates(self):
        c = Counter("requests_total")
        assert c.value == 0.0
        c.inc()
        c.inc(2.5)
        assert c.value == 3.5

    def test_rejects_negative_increment(self):
        with pytest.raises(TelemetryError):
            Counter("x").inc(-1)

    def test_rejects_bad_names(self):
        for bad in ("", "1abc", "has space", "dash-ed"):
            with pytest.raises(TelemetryError):
                Counter(bad)

    def test_thread_safety(self):
        c = Counter("concurrent")

        def spin():
            for _ in range(10_000):
                c.inc()

        threads = [threading.Thread(target=spin) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert c.value == 40_000


class TestGauge:
    def test_set_and_adjust(self):
        g = Gauge("cache.size")
        g.set(7)
        g.inc(-2)
        assert g.value == 5.0


class TestHistogram:
    def test_bucket_boundaries_inclusive_upper(self):
        h = Histogram("lat", buckets=(0.001, 0.01, 0.1))
        h.observe(0.001)   # == bound -> first bucket (le semantics)
        h.observe(0.0011)  # just above -> second bucket
        h.observe(0.5)     # above all bounds -> +Inf bucket
        snap = h.snapshot()
        assert snap["counts"] == [1, 1, 0, 1]
        assert snap["count"] == 3
        assert snap["min"] == 0.001
        assert snap["max"] == 0.5
        assert snap["sum"] == pytest.approx(0.5021)

    def test_bucket_index_matches_linear_scan(self):
        """observe() bisects; the slot must equal the first bound >= value
        found by a linear scan, +Inf past the last bound."""
        bounds = (-2.0, -0.5, 0.0, 0.25, 1.0, 8.0)

        def linear_slot(value):
            for i, bound in enumerate(bounds):
                if value <= bound:
                    return i
            return len(bounds)

        values = [*bounds,                       # exactly on every bound
                  -1e9, -2.0000001,              # below the first bound
                  8.0000001, 1e12, math.inf,     # above the last: +Inf
                  -1.0, -0.5000001, -1e-12,      # negatives between bounds
                  1e-12, 0.3, 7.999]
        for value in values:
            h = Histogram("slots", buckets=bounds)
            h.observe(value)
            expected = [0] * (len(bounds) + 1)
            expected[linear_slot(value)] = 1
            assert h.snapshot()["counts"] == expected, value

    def test_default_buckets_are_log_scale_ascending(self):
        bounds = DEFAULT_LATENCY_BUCKETS
        assert list(bounds) == sorted(bounds)
        ratios = [bounds[i + 1] / bounds[i] for i in range(len(bounds) - 1)]
        for ratio in ratios:
            assert ratio == pytest.approx(math.sqrt(10.0), rel=1e-6)
        assert bounds[0] == pytest.approx(1e-5)

    def test_rejects_nan_and_bad_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram("h").observe(float("nan"))
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(0.1, 0.1))
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(0.2, 0.1))
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=())
        with pytest.raises(TelemetryError):
            Histogram("h", buckets=(1.0, float("inf")))

    def test_mean(self):
        h = Histogram("m", buckets=(10.0,))
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_quantile_interpolates_within_bucket(self):
        h = Histogram("q", buckets=(1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.6, 1.7, 3.0):
            h.observe(v)
        # p50: rank 2.5 of 5 -> second sample inside (1, 2]; linear
        # interpolation inside that bucket.
        assert 1.0 <= h.quantile(0.5) <= 2.0
        # p0 / p100 clamp to the observed extremes, not bucket edges.
        assert h.quantile(0.0) == 0.5
        assert h.quantile(1.0) == 3.0

    def test_quantile_overflow_bucket_uses_observed_max(self):
        h = Histogram("q", buckets=(1.0,))
        h.observe(0.5)
        h.observe(50.0)   # +Inf bucket
        # The overflow bucket has no finite upper bound; the estimate
        # degrades to the observed max instead of fabricating a value.
        assert h.quantile(0.99) == 50.0

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("q", buckets=(10.0,))
        h.observe(2.0)
        h.observe(3.0)
        # Both samples share the coarse (0, 10] bucket; interpolation
        # alone would report up to 10, clamping bounds it by the data.
        for q in (0.1, 0.5, 0.9):
            assert 2.0 <= h.quantile(q) <= 3.0

    def test_quantile_errors(self):
        h = Histogram("q", buckets=(1.0,))
        # Empty histogram: a well-defined NaN, not an exception — the
        # caller shouldn't have to pre-check count() to render a report.
        assert math.isnan(h.quantile(0.5))
        h.observe(0.5)
        for bad_q in (-0.1, 1.5, math.inf):
            with pytest.raises(ValueError):
                h.quantile(bad_q)

    def test_quantile_from_snapshot_matches_live(self):
        from repro.obs import quantile_from_snapshot

        h = Histogram("q", buckets=(0.01, 0.1, 1.0))
        for v in (0.005, 0.02, 0.05, 0.5, 0.7):
            h.observe(v)
        snap = h.snapshot()
        for q in (0.0, 0.5, 0.95, 1.0):
            assert quantile_from_snapshot(snap, q) == h.quantile(q)
        assert math.isnan(
            quantile_from_snapshot(Histogram("e", buckets=(1.0,)).snapshot(),
                                   0.5))
        with pytest.raises(ValueError):
            quantile_from_snapshot(snap, 2.0)

    def test_quantile_matches_exact_on_fine_buckets(self):
        import numpy as np

        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 1.0, size=2000)
        h = Histogram("q", buckets=tuple(np.linspace(0.01, 1.0, 100)))
        for v in samples:
            h.observe(v)
        for q in (0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q))
            assert h.quantile(q) == pytest.approx(exact, abs=0.02)


class TestRegistry:
    def test_get_or_create_returns_same_object(self):
        reg = MetricsRegistry()
        assert reg.counter("a") is reg.counter("a")
        assert len(reg) == 1

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(TelemetryError):
            reg.gauge("x")
        with pytest.raises(TelemetryError):
            reg.histogram("x")

    def test_snapshot_and_names_sorted(self):
        reg = MetricsRegistry()
        reg.counter("b.two").inc(2)
        reg.gauge("a.one").set(1)
        assert reg.names() == ["a.one", "b.two"]
        snap = reg.snapshot()
        assert list(snap) == ["a.one", "b.two"]
        assert snap["b.two"]["value"] == 2

    def test_json_export_round_trips(self):
        reg = MetricsRegistry()
        reg.counter("hits", help="cache hits").inc(3)
        reg.histogram("lat", buckets=(0.1, 1.0)).observe(0.05)
        doc = json.loads(reg.to_json())
        assert doc["metrics"]["hits"] == {
            "kind": "counter", "value": 3.0, "help": "cache hits"}
        assert doc["metrics"]["lat"]["counts"] == [1, 0, 0]

    def test_prometheus_golden_output(self):
        reg = MetricsRegistry()
        reg.counter("guard.degraded_total", help="Fallback answers").inc(2)
        reg.gauge("train.best_epoch").set(4)
        reg.histogram("predict.latency_seconds",
                      buckets=(0.001, 0.1)).observe(0.05)
        expected = (
            '# HELP guard_degraded_total Fallback answers\n'
            '# TYPE guard_degraded_total counter\n'
            'guard_degraded_total 2\n'
            '# TYPE predict_latency_seconds histogram\n'
            'predict_latency_seconds_bucket{le="0.001"} 0\n'
            'predict_latency_seconds_bucket{le="0.1"} 1\n'
            'predict_latency_seconds_bucket{le="+Inf"} 1\n'
            'predict_latency_seconds_sum 0.05\n'
            'predict_latency_seconds_count 1\n'
            '# TYPE train_best_epoch gauge\n'
            'train_best_epoch 4\n'
        )
        assert reg.to_prometheus() == expected

    def test_prometheus_counter_total_suffix(self):
        # Counters are rendered under the conventional _total suffix;
        # names that already carry it are not doubled.
        reg = MetricsRegistry()
        reg.counter("encoder.cache.hits").inc(7)
        reg.counter("guard.requests_total").inc(2)
        text = reg.to_prometheus()
        assert "encoder_cache_hits_total 7" in text
        assert "# TYPE encoder_cache_hits_total counter" in text
        assert "guard_requests_total 2" in text
        assert "guard_requests_total_total" not in text

    def test_prometheus_help_escaping(self):
        reg = MetricsRegistry()
        reg.counter("weird_total",
                    help="line one\nline two with back\\slash").inc()
        text = reg.to_prometheus()
        assert ("# HELP weird_total line one\\nline two with back\\\\slash"
                in text)
        # Still one line per HELP entry — the raw newline never leaks.
        assert all(line.startswith(("#", "weird_total"))
                   for line in text.strip().splitlines())

    def test_prometheus_from_persisted_snapshot(self):
        reg = MetricsRegistry()
        reg.counter("n").inc(5)
        snap = json.loads(reg.to_json())["metrics"]
        assert prometheus_from_snapshot(snap) == reg.to_prometheus()


class TestSpans:
    def test_nesting_and_fake_clock_timing(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("predict") as root:
            clock.advance(0.5)
            with tracer.span("encode") as enc:
                clock.advance(0.25)
            with tracer.span("forward"):
                clock.advance(1.0)
                with tracer.span("forward_inference"):
                    clock.advance(0.125)
        assert root.duration == pytest.approx(1.875)
        assert [c.name for c in root.children] == ["encode", "forward"]
        assert enc.duration == pytest.approx(0.25)
        fwd = root.find("forward")
        assert fwd.duration == pytest.approx(1.125)
        assert root.find("forward_inference").duration == pytest.approx(0.125)
        assert tracer.last_root() is root
        assert tracer.roots() == [root]

    def test_separate_roots_and_ring_bound(self):
        tracer = Tracer(clock=FakeClock(), max_roots=2)
        for name in ("a", "b", "c"):
            with tracer.span(name):
                pass
        assert [s.name for s in tracer.roots()] == ["b", "c"]
        assert tracer.finished_count == 3
        tracer.clear()
        assert tracer.roots() == []
        assert tracer.finished_count == 3

    def test_exception_is_annotated_and_reraised(self):
        tracer = Tracer(clock=FakeClock())
        with pytest.raises(ValueError):
            with tracer.span("boom"):
                raise ValueError("nope")
        root = tracer.last_root()
        assert root.end is not None
        assert "ValueError" in root.annotations["error"]

    def test_annotations_and_dict_form(self):
        clock = FakeClock(10.0)
        tracer = Tracer(clock=clock)
        with tracer.span("encode", pairs=3) as sp:
            sp.annotate(cache_hits=2)
            clock.advance(0.1)
        d = tracer.last_root().to_dict()
        assert d["name"] == "encode"
        assert d["duration"] == pytest.approx(0.1)
        assert d["annotations"] == {"pairs": 3, "cache_hits": 2}
        assert d["children"] == []

    def test_render_tree(self):
        clock = FakeClock()
        tracer = Tracer(clock=clock)
        with tracer.span("outer"):
            with tracer.span("inner"):
                clock.advance(0.5)
        text = tracer.last_root().render()
        assert text.splitlines()[0].startswith("outer:")
        assert text.splitlines()[1].startswith("  inner: 0.5")


class TestEventLog:
    def test_emit_and_filter(self):
        log = EventLog(clock=FakeClock(100.0))
        log.emit("trainer", "epoch", epoch=0, train_loss=1.5)
        log.emit("guard", "fallback", source="gpsj")
        assert log.emitted == 2
        assert [e["event"] for e in log.events(component="guard")] == ["fallback"]
        epoch = log.events(component="trainer", event="epoch")[0]
        assert epoch["ts"] == 100.0
        assert epoch["train_loss"] == 1.5
        assert log.counts() == {"trainer.epoch": 1, "guard.fallback": 1}

    def test_reserved_field_collision_raises(self):
        with pytest.raises(TelemetryError):
            EventLog().emit("x", "y", ts=1.0)

    def test_jsonl_file_sink(self, tmp_path):
        path = tmp_path / "events.jsonl"
        log = EventLog(path=str(path), clock=FakeClock(1.0))
        log.emit("encoder", "cache_evict", size=3)
        log.emit("trainer", "recovery", reason="spike")
        log.close()
        lines = path.read_text().strip().splitlines()
        records = [json.loads(line) for line in lines]
        assert [r["event"] for r in records] == ["cache_evict", "recovery"]
        assert records[0]["component"] == "encoder"

    def test_json_built_only_for_the_file(self, tmp_path, monkeypatch):
        """Without a path emit() never serializes; with one, the ring,
        returned records, tallies and file lines are unchanged."""
        def emit_all(log):
            return [log.emit("audit", "prediction", index=i, tier="f64",
                             resources={"executors": 2})
                    for i in range(3)]

        filed = EventLog(path=str(tmp_path / "e.jsonl"), clock=FakeClock(5.0))
        filed_records = emit_all(filed)
        filed.close()
        lines = (tmp_path / "e.jsonl").read_text().splitlines()
        assert lines == [json.dumps(r, sort_keys=True) for r in filed_records]

        class NoJSON:
            @staticmethod
            def dumps(*args, **kwargs):
                raise AssertionError("json.dumps called without a file sink")

        monkeypatch.setattr(events_module, "json", NoJSON)
        memory = EventLog(clock=FakeClock(5.0))
        assert emit_all(memory) == filed_records
        assert memory.events() == filed.events() == filed_records
        assert memory.counts() == filed.counts() == {"audit.prediction": 3}
        assert memory.emitted == filed.emitted == 3

    def test_ring_eviction_keeps_tallies(self):
        log = EventLog(capacity=2)
        for i in range(5):
            log.emit("c", "e", i=i)
        assert len(log.events()) == 2
        assert log.counts() == {"c.e": 5}

    def test_logging_bridge(self):
        log = EventLog()
        logger = log.logger("persistence")
        assert logger is log.logger("persistence")  # idempotent bridge
        assert sum(isinstance(h, obs.EventLogHandler)
                   for h in logger.handlers) == 1
        logger.warning("checkpoint %s is torn", "model.npz")
        (event,) = log.events(component="persistence")
        assert event["event"] == "log"
        assert event["level"] == "warning"
        assert event["message"] == "checkpoint model.npz is torn"
        assert isinstance(logger, logging.Logger)


class TestRuntime:
    def test_helpers_are_noops_when_detached(self):
        previous = obs.detach()
        try:
            assert not obs.enabled()
            sp = obs.span("predict", pairs=1)
            with sp as inner:
                inner.annotate(anything=1)
            assert sp is obs.NULL_SPAN
            obs.inc("nope")
            obs.observe("nope", 1.0)
            obs.set_gauge("nope", 1.0)
            obs.emit_event("nope", "nope")
        finally:
            if previous is not None:
                obs.attach(previous)

    def test_attached_restores_previous(self):
        outer = Telemetry.create()
        inner = Telemetry.create()
        with obs.attached(outer):
            assert obs.active() is outer
            with obs.attached(inner):
                assert obs.active() is inner
                obs.inc("only.inner")
            assert obs.active() is outer
        assert "only.inner" in inner.registry
        assert "only.inner" not in outer.registry

    def test_attached_restores_on_exception(self):
        tel = Telemetry.create()
        with pytest.raises(RuntimeError):
            with obs.attached(tel):
                raise RuntimeError
        assert obs.active() is not tel

    def test_install_from_env(self, tmp_path):
        previous = obs.detach()
        try:
            assert obs.install_from_env({}) is None
            path = str(tmp_path / "t.jsonl")
            tel = obs.install_from_env({obs.TELEMETRY_ENV_VAR: path})
            assert tel is not None and obs.active() is tel
            tel.events.emit("x", "y")
            tel.close()
            assert json.loads((tmp_path / "t.jsonl").read_text())["event"] == "y"
        finally:
            obs.detach()
            if previous is not None:
                obs.attach(previous)


class TestReport:
    def _populated(self):
        clock = FakeClock()
        tel = Telemetry(tracer=Tracer(clock=clock))
        tel.registry.counter("guard.degraded_total").inc(1)
        tel.registry.histogram("predict.latency_seconds").observe(0.02)
        with tel.tracer.span("predict"):
            clock.advance(0.02)
        tel.events.emit("guard", "fallback", source="gpsj")
        return tel

    def test_from_telemetry_and_render(self):
        report = TelemetryReport.from_telemetry(self._populated())
        assert report.metrics["guard.degraded_total"]["value"] == 1
        assert report.spans[0]["name"] == "predict"
        assert report.event_counts == {"guard.fallback": 1}
        text = report.render()
        assert "guard.degraded_total" in text
        assert "guard.fallback" in text
        assert "+Inf" not in text  # tables stay human-scale

    def test_write_and_load_json_report(self, tmp_path):
        report = TelemetryReport.from_telemetry(self._populated())
        path = tmp_path / "report.json"
        report.write(path)
        loaded = load_report(path)
        assert loaded.metrics == report.metrics
        assert loaded.event_counts == report.event_counts
        assert loaded.to_prometheus() == report.to_prometheus()

    def test_load_from_jsonl_stream_takes_last_report(self, tmp_path):
        tel = self._populated()
        path = tmp_path / "run.jsonl"
        with open(path, "w") as fh:
            fh.write(json.dumps({"ts": 1, "component": "obs",
                                 "event": "telemetry_report",
                                 "report": {"metrics": {
                                     "stale": {"kind": "counter", "value": 1,
                                               "help": ""}}}}) + "\n")
            fh.write(json.dumps({"ts": 2, "component": "trainer",
                                 "event": "epoch", "epoch": 0}) + "\n")
            fh.write(json.dumps({
                "ts": 3, "component": "obs", "event": "telemetry_report",
                "report": TelemetryReport.from_telemetry(tel).to_dict(),
            }) + "\n")
        loaded = load_report(path)
        assert "stale" not in loaded.metrics
        assert "guard.degraded_total" in loaded.metrics

    def test_load_rejects_missing_empty_and_malformed(self, tmp_path):
        with pytest.raises(TelemetryError):
            load_report(tmp_path / "ghost.json")
        empty = tmp_path / "empty.jsonl"
        empty.write_text("")
        with pytest.raises(TelemetryError):
            load_report(empty)
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"ok": 1}\nnot json\n')
        with pytest.raises(TelemetryError):
            load_report(bad)
        no_report = tmp_path / "no_report.jsonl"
        no_report.write_text('{"ts": 1, "component": "a", "event": "b"}\n')
        with pytest.raises(TelemetryError):
            load_report(no_report)
