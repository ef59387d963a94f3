"""Tests for the overload-resilience layer: deadlines, admission
control, the precision-degradation ladder, the accuracy canary (a
:class:`ShadowScorer`), and their integration into the guarded
prediction chain.

Time-driven behaviour runs on injected fake clocks wherever possible;
the few tests that exercise real thread abandonment use generous
margins (a 500ms injected hang against a 50ms deadline) so they stay
robust on loaded CI machines.
"""

import time

import numpy as np
import pytest

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core import CostPredictor
from repro.core.execution import BucketExecutor
from repro.core.predictor import PredictorConfig
from repro.errors import DeadlineExceeded, Overloaded, ReproError, TrainingError
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.nn.precision import inference_weights, invalidate_inference_cache
from repro.reliability import (
    CANARY_BUDGET,
    CLOSED,
    OPEN,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    Deadline,
    DegradationLadder,
    FaultInjector,
    GuardedCostPredictor,
    LadderConfig,
    ShadowScorer,
)


class FakeClock:
    """Manually advanced monotonic clock."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


# -- deadlines -------------------------------------------------------------
class TestDeadline:
    def test_countdown_and_expiry(self):
        clock = FakeClock()
        deadline = Deadline.from_ms(50, clock=clock)
        assert deadline.remaining() == pytest.approx(0.05)
        assert not deadline.expired()
        deadline.check("early")  # within budget: no raise
        clock.advance(0.06)
        assert deadline.expired()
        assert deadline.remaining() == pytest.approx(-0.01)

    def test_check_names_the_checkpoint(self):
        clock = FakeClock()
        deadline = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        with pytest.raises(DeadlineExceeded, match="between buckets"):
            deadline.check("between buckets")

    def test_negative_budget_rejected(self):
        with pytest.raises(ReproError):
            Deadline.after(-1.0)

    def test_zero_budget_is_immediately_expired(self):
        clock = FakeClock()
        deadline = Deadline.after(0.0, clock=clock)
        assert deadline.expired()


# -- admission control -----------------------------------------------------
class TestAdmission:
    def test_fast_path_admits_under_capacity(self):
        ctl = AdmissionController(AdmissionConfig(max_in_flight=2))
        with ctl.admit():
            assert ctl.in_flight == 1
            with ctl.admit():
                assert ctl.in_flight == 2
        assert ctl.in_flight == 0
        assert ctl.snapshot()["admitted_total"] == 2

    def test_queue_full_sheds_instantly(self):
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        ctl.acquire()
        start = time.monotonic()
        with pytest.raises(Overloaded, match="queue full"):
            ctl.acquire()
        assert time.monotonic() - start < 0.005  # no wait, no lock convoy
        assert ctl.snapshot()["shed_queue_full"] == 1
        ctl.release()

    def test_expired_deadline_sheds_without_queueing(self):
        clock = FakeClock()
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=4), clock=clock)
        ctl.acquire()
        stale = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        with pytest.raises(Overloaded):
            ctl.acquire(deadline=stale)
        assert ctl.queue_depth == 0
        ctl.release()

    def test_wait_timeout_sheds(self):
        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=2,
                            max_wait_seconds=0.02))
        ctl.acquire()
        with pytest.raises(Overloaded, match="no slot"):
            ctl.acquire()
        assert ctl.snapshot()["shed_wait_timeout"] == 1
        ctl.release()

    def test_release_without_acquire_rejected(self):
        ctl = AdmissionController()
        with pytest.raises(ReproError):
            ctl.release()

    def test_waiter_admitted_when_slot_frees(self):
        import threading

        ctl = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=2,
                            max_wait_seconds=5.0))
        ctl.acquire()
        admitted = threading.Event()

        def waiter():
            ctl.acquire()
            admitted.set()
            ctl.release()

        thread = threading.Thread(target=waiter)
        thread.start()
        for _ in range(100):
            if ctl.queue_depth == 1:
                break
            time.sleep(0.005)
        ctl.release()
        thread.join(timeout=5.0)
        assert admitted.is_set()
        assert ctl.shed_total == 0


# -- degradation ladder ----------------------------------------------------
def fast_ladder(clock, **overrides) -> DegradationLadder:
    config = dict(degrade_p99=0.010, window=4, min_samples=2,
                  hold_seconds=0.0, quarantine_seconds=30.0)
    config.update(overrides)
    return DegradationLadder(LadderConfig(**config), clock=clock)


def push_down(ladder: DegradationLadder, rungs: int = 1) -> None:
    """Feed slow samples until the ladder drops ``rungs`` times."""
    for _ in range(rungs):
        start = ladder.rung
        for _ in range(8):
            ladder.record(0.05)
            if ladder.rung != start:
                break
        assert ladder.rung == start + 1


class TestLadder:
    def test_steps_down_on_high_p99(self):
        ladder = fast_ladder(FakeClock())
        assert ladder.state == "healthy" and ladder.precision() == "f64"
        push_down(ladder)
        assert ladder.state == "degraded_f32" and ladder.precision() == "f32"
        push_down(ladder)
        assert ladder.state == "degraded_int8" and ladder.precision() == "int8"
        push_down(ladder)
        assert ladder.state == "fallback"
        # With a zero hold the FALLBACK auto-probe fires on the very
        # next read (the hold-gated case is covered below).
        assert ladder.precision() == "int8"

    def test_recovers_hysteretically(self):
        clock = FakeClock()
        ladder = fast_ladder(clock, hold_seconds=2.0)
        clock.advance(3.0)
        push_down(ladder)
        # Fast samples inside the hold window must not promote.
        clock.advance(1.0)
        for _ in range(4):
            ladder.record(0.001)
        assert ladder.state == "degraded_f32"
        # Past the hold, samples between recover and degrade thresholds
        # (the hysteresis band) still hold the rung...
        clock.advance(2.0)
        for _ in range(4):
            ladder.record(0.008)
        assert ladder.state == "degraded_f32"
        # ...and only genuinely fast samples promote.
        for _ in range(4):
            ladder.record(0.001)
            if ladder.state == "healthy":
                break
        assert ladder.state == "healthy"

    def test_fallback_probes_up_on_dwell_alone(self):
        clock = FakeClock()
        ladder = fast_ladder(clock, hold_seconds=2.0)
        for _ in range(3):
            clock.advance(2.5)  # satisfy the dwell before each step
            push_down(ladder)
        assert ladder.state == "fallback"
        assert ladder.precision() is None  # still inside the hold
        clock.advance(2.5)
        assert ladder.precision() == "int8"  # auto-probe after dwell
        assert ladder.state == "degraded_int8"

    def test_breaker_open_pins_fallback(self):
        clock = FakeClock()
        ladder = fast_ladder(clock)
        ladder.on_breaker_transition("closed", "open")
        assert ladder.state == "fallback"
        # Pinned: dwell-based probing must not escape while open.
        clock.advance(100.0)
        assert ladder.precision() is None
        ladder.on_breaker_transition("open", "half_open")
        assert ladder.state == "degraded_int8"

    def test_accuracy_trip_quarantines_the_rung(self):
        clock = FakeClock()
        ladder = fast_ladder(clock, quarantine_seconds=30.0)
        push_down(ladder, rungs=2)
        assert ladder.state == "degraded_int8"
        ladder.trip_accuracy("test drift")
        assert ladder.state == "degraded_f32"
        # Latency pressure cannot push back onto the quarantined rung.
        for _ in range(8):
            ladder.record(0.05)
        assert ladder.state == "degraded_f32"
        # After the quarantine expires it can.
        clock.advance(31.0)
        push_down(ladder)
        assert ladder.state == "degraded_int8"

    def test_transitions_recorded_with_reasons(self):
        ladder = fast_ladder(FakeClock())
        push_down(ladder)
        assert len(ladder.history) == 1
        transition = ladder.history[0]
        assert (transition.old, transition.new) == ("healthy", "degraded_f32")
        assert "p99" in transition.reason


class RecomputingLadder(DegradationLadder):
    """Reference ladder: recomputes its p99 on every evaluation."""

    def _evaluate(self) -> None:
        self._p99 = None
        super()._evaluate()


class TestLadderP99Cache:
    def test_p99_computed_once_per_recorded_sample(self, monkeypatch):
        percentile = np.percentile
        calls = []

        def counting(*args, **kwargs):
            calls.append(1)
            return percentile(*args, **kwargs)

        ladder = fast_ladder(FakeClock())
        ladder.record(0.008)  # below min_samples: nothing to compute
        monkeypatch.setattr(np, "percentile", counting)
        for n in range(1, 11):
            # 8 ms sits in the hysteresis band: the rung never moves.
            ladder.record(0.008)
            assert len(calls) == n
            for _ in range(3):
                assert ladder.precision() == "f64"
            assert len(calls) == n
        assert ladder.history == []

    def test_history_matches_a_ladder_that_recomputes_every_call(self):
        rng = np.random.default_rng(20)
        config = LadderConfig(degrade_p99=0.010, window=4, min_samples=2,
                              hold_seconds=0.5, quarantine_seconds=30.0)
        clocks = (FakeClock(), FakeClock())
        ladders = (DegradationLadder(config, clock=clocks[0]),
                   RecomputingLadder(config, clock=clocks[1]))
        scale = 0.008
        for step in range(3000):
            if step % 40 == 0:  # a new load phase: fast, banded or slow
                scale = float(rng.choice([0.002, 0.008, 0.030]))
            op = rng.random()
            latency = float(rng.lognormal(np.log(scale), 0.3))
            advance = float(rng.exponential(0.1))
            for ladder, clock in zip(ladders, clocks):
                clock.advance(advance)
                if op < 0.6:
                    ladder.record(latency)
                elif op < 0.97:
                    ladder.precision()
                elif op < 0.98:
                    ladder.trip_accuracy("replayed drift")
                elif op < 0.99:
                    ladder.on_breaker_transition("closed", "open")
                else:
                    ladder.on_breaker_transition("open", "half_open")
        cached, reference = ladders
        assert len(reference.history) > 50
        assert {t.new for t in reference.history} == {
            "healthy", "degraded_f32", "degraded_int8", "fallback"}
        assert cached.history == reference.history


# -- accuracy canary -------------------------------------------------------
class TestCanary:
    def test_qerror_per_pair(self):
        qerrors = ShadowScorer("canary").score(np.array([1.0, 2.2]),
                                               lambda: np.array([1.0, 2.0]))
        np.testing.assert_allclose(qerrors, [1.0, 1.1])

    def test_observe_trips_past_budget(self):
        canary = ShadowScorer("canary")
        assert canary.score(np.array([1.04]),
                            lambda: np.array([1.0])).max() <= CANARY_BUDGET
        assert canary.score(np.array([1.0]),
                            lambda: np.array([1.10])).max() > CANARY_BUDGET
        snap = canary.snapshot()
        assert snap["samples"] == 2 and snap["errors"] == 0
        assert snap["last"] == pytest.approx(1.1)
        assert snap["mean"] == pytest.approx(1.07)

    def test_sampling_rates_and_determinism(self):
        assert not ShadowScorer("canary", sample_rate=0.0).should_sample()
        assert ShadowScorer("canary", sample_rate=1.0).should_sample()
        a = ShadowScorer("canary", sample_rate=0.5, seed=7)
        b = ShadowScorer("canary", sample_rate=0.5, seed=7)
        draws = [a.should_sample() for _ in range(64)]
        assert draws == [b.should_sample() for _ in range(64)]
        assert 0 < sum(draws) < 64

    def test_bad_sample_rate_rejected(self):
        for rate in (-0.1, 1.5):
            with pytest.raises(ReproError, match="sample_rate"):
                ShadowScorer("canary", sample_rate=rate)

    def test_failing_reference_is_counted_and_swallowed(self):
        canary = ShadowScorer("canary")

        def broken():
            raise RuntimeError("reference down")

        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            assert canary.score(np.array([1.0]), broken) is None
            assert canary.score(np.array([1.0, 2.0]),
                                lambda: np.array([np.nan, 2.0])) is None
        assert canary.snapshot() == {"samples": 0, "errors": 2, "last": None,
                                     "mean": None, "p95": None}
        assert telemetry.registry.counter("canary.errors_total").value == 2
        assert "canary.samples_total" not in telemetry.registry
        (event, _) = telemetry.events.events(component="canary",
                                             event="shadow_error")
        assert "reference down" in event["error"]


    def test_concurrent_scores_lose_no_sample(self):
        import sys
        import threading

        canary = ShadowScorer("canary")
        served = np.array([1.0, 1.5, 3.0])

        def worker():
            for _ in range(50):
                canary.score(served, lambda: np.ones(3))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        snap = canary.snapshot()
        assert snap["samples"] == 400 and snap["errors"] == 0
        assert canary._qerror.count == 1200
        assert snap["mean"] == pytest.approx(5.5 / 3)


# -- model-backed fixtures -------------------------------------------------
@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture(scope="module")
def predictor(trained):
    return CostPredictor(trained.encoder, trained.trainer)


@pytest.fixture(scope="module")
def pairs(pipeline):
    return [(r.plan, r.resources) for r in pipeline.records[:6]]


@pytest.fixture(scope="module")
def encoded(predictor, pairs):
    return predictor.encoder.encode_many(pairs)


# -- executor error propagation and deadlines (satellite regression) -------
class TestExecutorPropagation:
    def test_mid_bucket_fault_reraises_promptly(self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_forward_errors(trained.trainer.model)
        try:
            with pytest.raises(TrainingError, match="injected forward fault"):
                executor.predict_log(encoded)
        finally:
            restore()
            executor.close()

    def test_executor_recovers_after_fault_and_close_is_idempotent(
            self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_forward_errors(trained.trainer.model)
        try:
            with pytest.raises(TrainingError):
                executor.predict_log(encoded)
        finally:
            restore()
        preds, _ = executor.predict_log(encoded)  # pool not poisoned
        assert np.all(np.isfinite(preds))
        executor.close()
        executor.close()  # idempotent

    def test_threaded_watchdog_abandons_hung_buckets(self, trained, encoded):
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=2)
        restore = FaultInjector().force_bucket_hang(
            trained.trainer.model, seconds=0.5)
        try:
            start = time.monotonic()
            with pytest.raises(DeadlineExceeded, match="abandoned"):
                executor.predict_log(encoded, deadline=Deadline.after(0.05))
            # The caller gets the answer at the deadline, not after the
            # hang: abandonment, not completion.
            assert time.monotonic() - start < 0.4
        finally:
            restore()
            executor.close()

    def test_serial_path_checks_between_buckets(self, trained, encoded):
        clock = FakeClock()
        executor = BucketExecutor(trained.trainer.model, batch_size=2,
                                  threads=1)
        # The injected "hang" advances the deadline's fake clock, so the
        # cooperative check fires deterministically without sleeping.
        restore = FaultInjector().force_bucket_hang(
            trained.trainer.model, seconds=0.1, sleep=clock.advance)
        try:
            with pytest.raises(DeadlineExceeded):
                executor.predict_log(
                    encoded, deadline=Deadline.after(0.05, clock=clock))
        finally:
            restore()
            executor.close()


# -- guarded chain integration ---------------------------------------------
@pytest.fixture()
def telemetry():
    """Fresh attached telemetry bundle: the guard's ``guard.*`` counters."""
    bundle = obs.Telemetry.create()
    with obs.attached(bundle):
        yield bundle


def make_guard(predictor, pipeline, **kwargs) -> GuardedCostPredictor:
    return GuardedCostPredictor(
        predictor, gpsj=GPSJCostModel(pipeline.catalog), **kwargs)


class TestGuardOverload:
    def test_blown_deadline_degrades_with_provenance(self, predictor, pipeline,
                                                     telemetry):
        clock = FakeClock()
        guard = make_guard(predictor, pipeline, clock=clock)
        record = pipeline.records[0]
        stale = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        result = guard.predict_explained(record.plan, record.resources,
                                         deadline=stale)
        assert result.source == "gpsj" and result.degraded
        assert "deadline_exceeded" in result.reason
        assert telemetry.registry.counter(
            "guard.raal.deadline_exceeded_total").value == 1
        # Load is not model failure: the breaker must stay closed.
        assert guard.breakers["raal"].state == CLOSED

    def test_default_deadline_is_synthesized(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(predictor, pipeline, clock=clock,
                           default_deadline_ms=25.0)
        # Encoding "takes" 50ms on the fake clock: the synthesized
        # deadline expires at the post-encode check.
        original = predictor.encoder.encode_many

        def slow_encode(pairs):
            clock.advance(0.05)
            return original(pairs)

        predictor.encoder.encode_many = slow_encode
        try:
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
        finally:
            predictor.encoder.__dict__.pop("encode_many", None)
        assert result.source == "gpsj"
        assert "deadline_exceeded" in result.reason

    def test_shed_falls_back_by_default(self, predictor, pipeline, telemetry):
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        guard = make_guard(predictor, pipeline, admission=admission)
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
        finally:
            restore()
        assert result.source == "gpsj"
        assert "shed" in result.reason
        assert telemetry.registry.counter("predict.shed_total").value == 1
        assert guard.breakers["raal"].state == CLOSED

    def test_shed_mode_reject_raises(self, predictor, pipeline):
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0))
        guard = make_guard(predictor, pipeline, admission=admission,
                           shed_mode="reject")
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            record = pipeline.records[0]
            with pytest.raises(Overloaded):
                guard.predict(record.plan, record.resources)
        finally:
            restore()

    def test_unknown_shed_mode_rejected(self, predictor, pipeline):
        with pytest.raises(Exception, match="shed_mode"):
            make_guard(predictor, pipeline, shed_mode="explode")

    def test_degraded_tier_serves_raal_with_provenance(
            self, predictor, pipeline, telemetry):
        clock = FakeClock()
        ladder = fast_ladder(clock)
        push_down(ladder)  # force the f32 rung
        guard = make_guard(predictor, pipeline, ladder=ladder, clock=clock)
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "raal"  # still the learned model...
        assert "degraded_precision:f32" in result.reason  # ...but degraded
        registry = telemetry.registry
        assert registry.counter(
            "guard.raal.degraded_precision_total").value == 1
        assert registry.counter("guard.raal.served_total").value == 1

    def test_ladder_fallback_skips_learned_model(self, predictor, pipeline,
                                                 telemetry):
        clock = FakeClock()
        ladder = fast_ladder(clock, hold_seconds=1000.0)
        ladder.on_breaker_transition("closed", "open")  # pin to fallback
        guard = make_guard(predictor, pipeline, ladder=ladder, clock=clock)
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "ladder in fallback" in result.reason
        assert telemetry.registry.counter(
            "guard.raal.ladder_fallback_total").value == 1

    def test_canary_trips_ladder_on_corrupt_tier(self, predictor, pipeline,
                                                 telemetry):
        model = predictor.trainer.model
        clock = FakeClock()
        ladder = fast_ladder(clock)
        push_down(ladder, rungs=2)  # force the int8 rung
        canary = ShadowScorer("canary")
        guard = make_guard(predictor, pipeline, ladder=ladder, canary=canary,
                           clock=clock)
        inference_weights(model, "int8")  # build the cached bundle
        injector = FaultInjector()
        try:
            corrupted = injector.corrupt_precision_cache(
                model, "int8", magnitude=0.5)
            assert corrupted > 0
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
            # Served from the corrupt tier, but the shadow sample caught it:
            assert "degraded_precision:int8" in result.reason
            assert canary.snapshot()["last"] > CANARY_BUDGET
            assert telemetry.registry.counter(
                "canary.trips_total").value == 1
            assert ladder.state == "degraded_f32"  # stepped up + quarantined
        finally:
            invalidate_inference_cache(model)

    def test_canary_runs_outside_the_learned_stage(self, predictor,
                                                   pipeline):
        """The f64 re-score is not learned-stage latency, and it holds
        no admission slot: a reference that takes 1 s on the fake clock
        adds nothing to the ladder's window."""
        clock = FakeClock()
        ladder = fast_ladder(clock)
        push_down(ladder, rungs=2)  # serve from the int8 rung
        recorded = []
        record_latency = ladder.record

        def spy(seconds):
            recorded.append(seconds)
            record_latency(seconds)

        ladder.record = spy
        admission = AdmissionController(clock=clock)
        canary = ShadowScorer("canary")
        guard = make_guard(predictor, pipeline, ladder=ladder,
                           admission=admission, canary=canary, clock=clock)
        in_flight = []
        reference = predictor.predict_encoded

        def slow_reference(encoded, deadline=None):
            in_flight.append(admission.in_flight)
            clock.advance(1.0)
            return reference(encoded, deadline=deadline)

        predictor.predict_encoded = slow_reference
        try:
            record = pipeline.records[0]
            result = guard.predict_explained(record.plan, record.resources)
        finally:
            del predictor.predict_encoded
        assert "degraded_precision:int8" in result.reason
        assert canary.snapshot()["samples"] == 1
        assert in_flight == [0]
        assert recorded == [0.0]
        assert ladder.state == "degraded_int8"

    def test_health_state_reports_posture(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(
            predictor, pipeline, clock=clock,
            admission=AdmissionController(clock=clock),
            ladder=fast_ladder(clock), canary=ShadowScorer("canary"),
            default_deadline_ms=100.0)
        health = guard.health_state()
        assert health["ladder"] == "healthy"
        assert health["precision"] == "f64"
        assert health["breakers"]["raal"] == CLOSED
        assert health["admission"]["in_flight"] == 0
        assert health["canary"]["samples"] == 0
        assert health["default_deadline_ms"] == 100.0


# -- grids reach the same faults as flat requests ---------------------------
GRID_CONFIGS = {"default": PredictorConfig(),
                # A no-op switch: it must not route grids around the
                # fault hooks.
                "factor_grids": PredictorConfig(factor_grids=True)}


class TestGridFaultReachability:
    """A grid request meets every forward fault a flat request meets."""

    @pytest.fixture(params=sorted(GRID_CONFIGS))
    def grid_predictor(self, request, predictor):
        return predictor.configured(GRID_CONFIGS[request.param])

    @staticmethod
    def shapes(pipeline):
        plans = [r.plan for r in pipeline.records[:3]]
        profiles = [r.resources for r in pipeline.records[3:7]]
        flat = [(r.plan, r.resources) for r in pipeline.records[:6]]
        return plans, profiles, flat

    def test_forward_error_raises_from_an_unguarded_grid(
            self, grid_predictor, pipeline):
        plans, profiles, flat = self.shapes(pipeline)
        restore = FaultInjector().force_forward_errors(
            grid_predictor.trainer.model)
        try:
            for call in (lambda: grid_predictor.predict_many(flat),
                         lambda: grid_predictor.predict_grid(plans, profiles)):
                with pytest.raises(TrainingError, match="injected forward"):
                    call()
        finally:
            restore()

    def test_bucket_hang_blows_an_unguarded_grid_deadline(
            self, grid_predictor, pipeline):
        plans, profiles, flat = self.shapes(pipeline)
        clock = FakeClock()
        restore = FaultInjector().force_bucket_hang(
            grid_predictor.trainer.model, seconds=0.1, sleep=clock.advance)
        try:
            for call in (lambda d: grid_predictor.predict_many(
                             flat, deadline=d),
                         lambda d: grid_predictor.predict_grid(
                             plans, profiles, deadline=d)):
                with pytest.raises(DeadlineExceeded):
                    call(Deadline.after(0.05, clock=clock))
        finally:
            restore()

    @pytest.mark.parametrize("fault", ["forward_error", "bucket_hang"])
    def test_guarded_grid_degrades_like_a_flat_request(
            self, grid_predictor, pipeline, fault, telemetry):
        plans, profiles, flat = self.shapes(pipeline)
        clock = FakeClock()
        model = grid_predictor.trainer.model
        if fault == "forward_error":
            restore = FaultInjector().force_forward_errors(model)
        else:
            restore = FaultInjector().force_bucket_hang(
                model, seconds=0.1, sleep=clock.advance)
        try:
            served = []
            for call in (
                    lambda guard, d: guard.predict_many_explained(
                        flat, deadline=d),
                    lambda guard, d: guard.predict_grid_explained(
                        plans, profiles, deadline=d)):
                guard = make_guard(grid_predictor, pipeline, clock=clock)
                served.append(call(guard, Deadline.after(0.05, clock=clock)))
        finally:
            restore()
        assert telemetry.registry.counter("guard.gpsj.served_total").value == 2
        flat_result, grid_result = served
        assert grid_result.costs.shape == (len(profiles), len(plans))
        assert flat_result.source == grid_result.source == "gpsj"
        expected = ("injected forward" if fault == "forward_error"
                    else "deadline_exceeded")
        assert expected in flat_result.reason
        assert expected in grid_result.reason


# -- fault injector additions ----------------------------------------------
class TestThreadAwareFaults:
    def test_bucket_hang_restores(self, predictor, encoded):
        model = predictor.trainer.model
        sleeps = []
        restore = FaultInjector().force_bucket_hang(
            model, seconds=0.25, sleep=sleeps.append)
        executor = BucketExecutor(model, batch_size=2, threads=1)
        try:
            executor.predict_log(encoded[:2])
            assert sleeps == [0.25]
        finally:
            restore()
            executor.close()
        assert "forward_inference" not in model.__dict__

    def test_bucket_hang_rejects_negative(self, predictor):
        with pytest.raises(ReproError):
            FaultInjector().force_bucket_hang(predictor.trainer.model, -1.0)

    def test_corrupt_precision_cache_requires_bundle(self, predictor):
        model = predictor.trainer.model
        invalidate_inference_cache(model)
        with pytest.raises(ReproError, match="no cached"):
            FaultInjector().corrupt_precision_cache(model, "int8")
        with pytest.raises(ReproError, match="cached tiers"):
            FaultInjector().corrupt_precision_cache(model, "f64")

    def test_corrupt_precision_cache_survives_fingerprint(
            self, predictor, pairs):
        model = predictor.trainer.model
        int8 = predictor.configured(PredictorConfig(precision="int8"))
        try:
            clean = int8.predict_many(pairs[:2])
            FaultInjector().corrupt_precision_cache(model, "int8",
                                                    magnitude=0.5)
            corrupt = int8.predict_many(pairs[:2])
            # The fingerprint still matches, so the corrupted bundle is
            # served — and drifts far beyond the canary budget.
            qerrors = ShadowScorer("canary").score(corrupt, lambda: clean)
            assert qerrors.max() > CANARY_BUDGET
        finally:
            int8.close()
            invalidate_inference_cache(model)

    def test_queue_saturation_holds_and_releases(self):
        ctl = AdmissionController(AdmissionConfig(max_in_flight=3))
        restore = FaultInjector().force_queue_saturation(ctl)
        assert ctl.in_flight == 3
        restore()
        assert ctl.in_flight == 0
        restore()  # idempotent
        assert ctl.in_flight == 0


# -- metrics export (satellite: obs integration) ---------------------------
class TestOverloadMetricsExport:
    def test_counters_gauges_and_histograms_export(self, predictor, pipeline):
        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            clock = FakeClock()
            ladder = fast_ladder(clock)
            admission = AdmissionController(
                AdmissionConfig(max_in_flight=1, max_queue_depth=0),
                clock=clock)
            canary = ShadowScorer("canary")
            guard = make_guard(predictor, pipeline, ladder=ladder,
                               admission=admission, canary=canary,
                               clock=clock)
            record = pipeline.records[0]
            # One shed:
            restore = FaultInjector().force_queue_saturation(admission)
            try:
                guard.predict(record.plan, record.resources)
            finally:
                restore()
            # One deadline blown at the guard's post-encode check:
            stale = Deadline.after(0.0, clock=clock)
            guard.predict(record.plan, record.resources, deadline=stale)
            # ...and one blown inside the executor, between buckets (the
            # injected hang advances the deadline's clock):
            model = predictor.trainer.model
            executor = BucketExecutor(model, batch_size=2, threads=1)
            exec_clock = FakeClock()
            restore = FaultInjector().force_bucket_hang(
                model, seconds=0.1, sleep=exec_clock.advance)
            try:
                encoded = predictor.encoder.encode_many(
                    [(record.plan, record.resources)] * 4)
                with pytest.raises(DeadlineExceeded):
                    executor.predict_log(
                        encoded, deadline=Deadline.after(0.05,
                                                         clock=exec_clock))
            finally:
                restore()
                executor.close()
            # One ladder transition:
            push_down(ladder)
            # One canary observation:
            canary.score(np.array([1.1]), lambda: np.array([1.0]))

        registry = telemetry.registry
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "guard.raal.deadline_exceeded_total", "health.state",
                     "canary.qerror", "ladder.transitions_total",
                     "admission.in_flight"):
            assert name in registry, f"missing metric {name}"
        assert registry.get("predict.shed_total").value == 1
        assert registry.get("health.state").value == 1  # degraded_f32
        assert registry.get("canary.qerror").count == 1

        json_text = registry.to_json()
        prom_text = registry.to_prometheus()
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "health.state", "canary.qerror"):
            assert name in json_text
            assert name.replace(".", "_") in prom_text
        # Histogram buckets render cumulatively in the Prometheus text.
        assert "canary_qerror_bucket" in prom_text
