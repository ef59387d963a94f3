"""Unit tests for the observability layer (repro.obs)."""

import json
import logging
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.obs import events as events_module
from repro.errors import TelemetryError
from repro.obs import (
    RELATIVE_ACCURACY,
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
    quantile_from_snapshot,
)
from repro.obs.metrics import _GAMMA


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


def _nearest_rank(samples, q):
    """The exact answer a histogram quantile stands for: x_(floor(q(n-1)))."""
    ordered = sorted(samples)
    return ordered[math.floor(q * (len(ordered) - 1))]


#: The sketch's bound is exact arithmetic's; the float logarithm and
#: power add rounding far below this slack.
_ROUNDING = 1e-12


class TestHistogram:
    def test_bucket_boundaries_inclusive_upper(self):
        # Key k holds (γ^(k-1), γ^k]: 1.0 = γ^0 and γ itself sit on an
        # upper bound; one ulp above moves to the next key.
        h = Histogram("lat")
        h.observe(1.0)
        h.observe(math.nextafter(1.0, math.inf))
        h.observe(_GAMMA)
        h.observe(math.nextafter(_GAMMA, math.inf))
        h.observe(0.0)     # non-positive -> the zero bucket
        h.observe(-3.0)
        snap = h.snapshot()
        assert snap["counts"] == {"0": 1, "1": 2, "2": 1}
        assert snap["zero"] == 2
        assert snap["count"] == 6
        assert snap["min"] == -3.0
        assert snap["max"] == math.nextafter(_GAMMA, math.inf)
        assert snap["relative_accuracy"] == RELATIVE_ACCURACY

    def test_bucket_index_matches_linear_scan(self):
        """The key of a sample is the first k with value <= γ^k, found
        by a linear scan over the bounds; non-positive samples take the
        zero bucket and +inf no key."""

        def linear_key(value):
            k = -1200
            while _GAMMA ** k < value:
                k += 1
            return k

        rng = np.random.default_rng(3)
        values = [*(10.0 ** rng.uniform(-9, 9, size=200)),
                  1e-5, 0.0123, 0.5, 2.0, 31.6, 1e4]
        for value in values:
            h = Histogram("slots")
            h.observe(value)
            assert h.snapshot()["counts"] == {str(linear_key(value)): 1}
        for value in (0.0, -0.0, -1e-12, -1e9, -math.inf, math.inf):
            h = Histogram("slots")
            h.observe(value)
            snap = h.snapshot()
            assert snap["counts"] == {}
            assert snap["zero"] == (0 if value == math.inf else 1)
            assert snap["count"] == 1

    def test_default_buckets_are_log_scale_ascending(self):
        assert RELATIVE_ACCURACY == 0.01
        assert _GAMMA == (1 + RELATIVE_ACCURACY) / (1 - RELATIVE_ACCURACY)
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        samples = [10.0 ** (k / 2.0) for k in range(-10, 4)]
        for value in samples:
            h.observe(value)
        bounds = [float(line.split('le="')[1].split('"')[0])
                  for line in reg.to_prometheus().splitlines()
                  if "_bucket" in line][1:-1]   # drop le="0" and +Inf
        assert bounds == sorted(bounds) and len(bounds) == len(samples)
        for value, bound in zip(samples, bounds):
            # Each sample sits in the one bucket (bound/γ, bound].
            assert value <= bound * (1 + 1e-6)
            assert bound < value * _GAMMA * (1 + 1e-6)

    def test_rejects_nan_and_bad_buckets(self):
        with pytest.raises(TelemetryError):
            Histogram("h").observe(float("nan"))
        # Buckets are no longer configurable anywhere.
        with pytest.raises(TypeError):
            Histogram("h", buckets=(0.1, 1.0))
        with pytest.raises(TypeError):
            MetricsRegistry().histogram("h", buckets=(0.1, 1.0))
        with obs.attached(Telemetry.create()):
            with pytest.raises(TypeError):
                obs.observe("h", 1.0, buckets=(0.1, 1.0))

    def test_mean(self):
        h = Histogram("m")
        assert h.mean == 0.0
        h.observe(2.0)
        h.observe(4.0)
        assert h.mean == 3.0

    def test_quantile_is_the_bucket_representative(self):
        h = Histogram("q")
        for v in (0.5, 1.5, 1.6, 1.7, 3.0):
            h.observe(v)
        # p50: nearest rank floor(0.5 * 4) = 2 -> 1.6, whose bucket
        # (γ^(k-1), γ^k] answers 2γ^k/(γ+1).
        k = math.ceil(math.log(1.6) / math.log(_GAMMA))
        assert h.quantile(0.5) == pytest.approx(
            2 * _GAMMA ** k / (_GAMMA + 1), rel=1e-12)
        assert h.quantile(0.5) == pytest.approx(1.6, rel=RELATIVE_ACCURACY)
        # p0 / p100 stand for the observed extremes and never leave them.
        assert 0.5 <= h.quantile(0.0) <= 0.5 * (1 + RELATIVE_ACCURACY)
        assert 3.0 * (1 - RELATIVE_ACCURACY) <= h.quantile(1.0) <= 3.0

    def test_quantile_overflow_bucket_uses_observed_max(self):
        h = Histogram("q")
        h.observe(0.5)
        h.observe(50.0)
        # Nearest rank floor(0.99 * 1) = 0: the lower sample, not the max.
        assert h.quantile(0.99) == pytest.approx(0.5, rel=RELATIVE_ACCURACY)
        h.observe(math.inf)   # the +Inf overflow: no key of its own
        assert h.quantile(1.0) == math.inf
        assert h.quantile(0.5) == pytest.approx(50.0, rel=RELATIVE_ACCURACY)

    def test_quantile_clamped_to_observed_range(self):
        h = Histogram("q")
        h.observe(2.0)
        h.observe(2.01)
        # Both samples share one bucket, whose representative lies
        # below 2.0; clamping bounds it by the data.
        for q in (0.0, 0.1, 0.5, 0.9, 1.0):
            assert 2.0 <= h.quantile(q) <= 2.01
        single = Histogram("one")
        single.observe(0.0123)
        assert single.quantile(0.5) == 0.0123

    def test_quantile_errors(self):
        h = Histogram("q")
        # Empty histogram: a well-defined NaN, not an exception — the
        # caller shouldn't have to pre-check count() to render a report.
        assert math.isnan(h.quantile(0.5))
        h.observe(0.5)
        for bad_q in (-0.1, 1.5, math.inf, math.nan):
            with pytest.raises(ValueError):
                h.quantile(bad_q)

    def test_quantile_from_snapshot_matches_live(self):
        from repro.obs import quantile_from_snapshot

        h = Histogram("q")
        for v in (0.0, 0.005, 0.02, 0.05, 0.5, 0.7, 1e4, math.inf):
            h.observe(v)
        snap = json.loads(json.dumps(h.snapshot()))  # as persisted
        for q in (0.0, 0.1, 0.5, 0.95, 0.99, 1.0):
            assert quantile_from_snapshot(snap, q) == h.quantile(q)
        assert math.isnan(quantile_from_snapshot(Histogram("e").snapshot(),
                                                 0.5))
        with pytest.raises(ValueError):
            quantile_from_snapshot(snap, 2.0)
        old_form = {"kind": "histogram", "buckets": [1.0], "counts": [1, 0],
                    "count": 1, "sum": 0.5, "min": 0.5, "max": 0.5}
        with pytest.raises(TelemetryError):
            quantile_from_snapshot(old_form, 0.5)

    def test_quantile_matches_exact_on_fine_buckets(self):
        rng = np.random.default_rng(7)
        samples = rng.uniform(0.0, 1.0, size=2000)
        h = Histogram("q")
        for v in samples:
            h.observe(v)
        for q in (0.01, 0.5, 0.95, 0.99):
            exact = float(np.quantile(samples, q, method="lower"))
            assert exact == _nearest_rank(samples, q)
            assert abs(h.quantile(q) - exact) <= RELATIVE_ACCURACY * exact

    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.floats(min_value=0.0, exclude_min=True,
                              allow_infinity=False, allow_subnormal=False),
                    min_size=1, max_size=60),
           st.floats(min_value=0.0, max_value=1.0))
    def test_relative_error_bound_property(self, samples, q):
        """For any positive finite (normal) samples and any q, the
        estimate is within α of the nearest-rank sample."""
        h = Histogram("prop")
        for v in samples:
            h.observe(v)
        exact = _nearest_rank(samples, q)
        estimate = h.quantile(q)
        assert abs(estimate - exact) <= (RELATIVE_ACCURACY + _ROUNDING) * exact
        assert quantile_from_snapshot(h.snapshot(), q) == estimate

    def test_zero_and_inf_samples_are_exact(self):
        h = Histogram("edges")
        for v in (0.0, 0.0, 1.0, math.inf):
            h.observe(v)
        assert h.quantile(0.0) == 0.0
        assert h.quantile(0.4) == 0.0                  # rank 1: a zero
        assert h.quantile(0.7) == pytest.approx(1.0, rel=RELATIVE_ACCURACY)
        assert h.quantile(1.0) == math.inf             # rank 3: +inf
        assert h.sum == math.inf and h.count == 4

    def test_concurrent_observe_loses_no_sample(self):
        h = Histogram("conc")
        values = [10.0 ** (k / 7.0) for k in range(-20, 20)]
        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(
                target=lambda: [h.observe(v) for v in values * 50])
                for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30.0)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(old)
        snap = h.snapshot()
        assert snap["count"] == 8 * 50 * len(values)
        assert sum(snap["counts"].values()) == snap["count"]
        serial = Histogram("serial")
        for v in values * 400:
            serial.observe(v)
        assert snap["counts"] == serial.snapshot()["counts"]
        for q in (0.0, 0.5, 0.99, 1.0):
            assert h.quantile(q) == serial.quantile(q)


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
        reg.histogram("lat").observe(0.05)
        doc = json.loads(reg.to_json())
        assert doc["metrics"]["hits"] == {
            "kind": "counter", "value": 3.0, "help": "cache hits"}
        assert doc["metrics"]["lat"] == {
            "kind": "histogram", "help": "", "relative_accuracy": 0.01,
            "zero": 0, "counts": {"-149": 1}, "count": 1, "sum": 0.05,
            "min": 0.05, "max": 0.05}

    def test_prometheus_golden_output(self):
        reg = MetricsRegistry()
        reg.counter("guard.degraded_total", help="Fallback answers").inc(2)
        reg.gauge("train.best_epoch").set(4)
        reg.histogram("predict.latency_seconds").observe(0.05)
        reg.histogram("predict.latency_seconds").observe(0.0)
        expected = (
            '# HELP guard_degraded_total Fallback answers\n'
            '# TYPE guard_degraded_total counter\n'
            'guard_degraded_total 2\n'
            '# TYPE predict_latency_seconds histogram\n'
            'predict_latency_seconds_bucket{le="0"} 1\n'
            'predict_latency_seconds_bucket{le="0.0507878"} 2\n'
            'predict_latency_seconds_bucket{le="+Inf"} 2\n'
            'predict_latency_seconds_sum 0.05\n'
            'predict_latency_seconds_count 2\n'
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
        for v in (0.0, 0.003, 0.02, 0.021, 7.0, math.inf):
            reg.histogram("lat").observe(v)
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
