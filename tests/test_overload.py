"""Tests for the overload-resilience layer: deadlines, admission
control, the shadow scorer, the learned-stage gate (the RAAL circuit
breaker tripped by failures, deadlines and drift), and their
integration into the guarded prediction chain.

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
from repro.obs.audit import AuditTrail
from repro.obs.quality import AccuracyTracker, DriftConfig, DriftDetector
from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    Deadline,
    GuardedCostPredictor,
    ShadowScorer,
)
from tests.faults import FaultInjector


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


# -- shadow scorer ---------------------------------------------------------
class TestCanary:
    """:class:`ShadowScorer`: per-pair q-errors, sampling, failures."""

    def test_qerror_per_pair(self):
        qerrors = ShadowScorer("canary").score(np.array([1.0, 2.2]),
                                               lambda: np.array([1.0, 2.0]))
        np.testing.assert_allclose(qerrors, [1.0, 1.1])

    def test_observe_trips_past_budget(self):
        budget = 1.05
        canary = ShadowScorer("canary")
        assert canary.score(np.array([1.04]),
                            lambda: np.array([1.0])).max() <= budget
        assert canary.score(np.array([1.0]),
                            lambda: np.array([1.10])).max() > budget
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
        guard = make_guard(predictor, pipeline, clock=clock,
                           default_deadline_ms=10.0)
        record = pipeline.records[0]
        stale = Deadline.after(0.01, clock=clock)
        clock.advance(0.02)
        result = guard.predict_explained(record.plan, record.resources,
                                         deadline=stale)
        assert result.source == "gpsj" and result.degraded
        assert "deadline_exceeded" in result.reason
        assert telemetry.registry.counter(
            "guard.raal.deadline_exceeded_total").value == 1
        # One blown deadline is a strike, not a trip: the gate stays closed.
        assert guard.breakers["raal"].state == CLOSED
        assert guard.breakers["raal"].consecutive_failures == 1

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

    def test_health_state_reports_posture(self, predictor, pipeline):
        clock = FakeClock()
        guard = make_guard(
            predictor, pipeline, clock=clock,
            admission=AdmissionController(clock=clock),
            default_deadline_ms=100.0)
        health = guard.health_state()
        assert health["gate"] == {"state": CLOSED, "cause": None}
        assert health["precision"] == "f64"
        assert health["breakers"]["raal"] == CLOSED
        assert health["admission"]["in_flight"] == 0
        assert health["default_deadline_ms"] == 100.0
        guard.breakers["raal"].trip("drift")
        assert guard.health_state()["gate"] == {"state": OPEN,
                                                "cause": "drift"}


# -- the learned-stage gate --------------------------------------------------
COOLDOWN = 5.0
#: The server's default deadline; :func:`expired` deadlines carry it.
DEADLINE_MS = 10.0


def gate_guard(predictor, pipeline, clock, **kwargs) -> GuardedCostPredictor:
    kwargs.setdefault("default_deadline_ms", DEADLINE_MS)
    return make_guard(predictor, pipeline, clock=clock,
                      breaker_config=BreakerConfig(
                          failure_threshold=3, cooldown_seconds=COOLDOWN),
                      **kwargs)


def serve(guard, pipeline, deadline=None):
    record = pipeline.records[0]
    return guard.predict_explained(record.plan, record.resources,
                                   deadline=deadline)


def expired(clock, budget_ms: float = DEADLINE_MS) -> Deadline:
    stale = Deadline.from_ms(budget_ms, clock=clock)
    clock.advance(2 * budget_ms / 1e3)
    return stale


class TestLearnedStageGate:
    def test_three_deadline_strikes_open_the_gate(self, predictor, pipeline,
                                                  telemetry):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        gate = guard.breakers["raal"]
        for strike in range(3):
            assert gate.state == CLOSED, strike
            result = serve(guard, pipeline, deadline=expired(clock))
            assert "deadline_exceeded" in result.reason
        assert (gate.state, gate.cause) == (OPEN, "deadline")
        # Open: the next request skips the model without running it.
        result = serve(guard, pipeline)
        assert result.source == "gpsj"
        assert result.reason == "raal: circuit open (deadline)"
        registry = telemetry.registry
        assert registry.counter("guard.raal.deadline_exceeded_total").value == 3
        assert registry.counter("gate.deadline_trips_total").value == 1
        assert registry.get("health.state").value == 2
        (event,) = telemetry.events.events(component="guard",
                                           event="breaker_transition")
        assert (event["stage"], event["new"], event["cause"]) == (
            "raal", OPEN, "deadline")

    def test_a_success_resets_the_deadline_strikes(self, predictor, pipeline):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        for _ in range(5):
            serve(guard, pipeline, deadline=expired(clock))
            serve(guard, pipeline, deadline=expired(clock))
            assert serve(guard, pipeline).source == "raal"
        assert guard.breakers["raal"].state == CLOSED

    def test_tight_client_deadlines_never_open_the_gate(
            self, predictor, pipeline, telemetry):
        """A client budget below the server default is no strike: its
        request falls back alone, the gate stays closed for others."""
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        gate = guard.breakers["raal"]
        for _ in range(10):
            result = serve(guard, pipeline,
                           deadline=expired(clock, DEADLINE_MS / 10))
            assert "deadline_exceeded" in result.reason
        assert gate.state == CLOSED and gate.consecutive_failures == 0
        # A fused batch runs under its tightest member's deadline.
        record = pipeline.records[0]
        pair = (record.plan, record.resources)
        for _ in range(5):
            fused = guard.predict_many_explained(
                [pair, pair], deadline=expired(clock, 1.0), members=[1, 1])
            assert fused.source == "gpsj"
        assert gate.state == CLOSED and gate.consecutive_failures == 0
        assert telemetry.registry.counter(
            "guard.raal.deadline_exceeded_total").value == 15
        assert serve(guard, pipeline).source == "raal"

    def test_client_deadline_without_a_server_default_is_no_strike(
            self, predictor, pipeline):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock,
                           default_deadline_ms=None)
        for _ in range(5):
            assert "deadline_exceeded" in serve(
                guard, pipeline, deadline=expired(clock)).reason
        assert guard.breakers["raal"].state == CLOSED

    def test_tight_deadline_on_a_probe_hands_the_slot_on(self, predictor,
                                                         pipeline):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        gate = guard.breakers["raal"]
        gate.trip("drift")
        clock.advance(COOLDOWN + 0.1)
        serve(guard, pipeline, deadline=expired(clock, DEADLINE_MS / 10))
        assert (gate.state, gate.cause) == (HALF_OPEN, "drift")
        assert serve(guard, pipeline).source == "raal"
        assert gate.state == CLOSED

    def test_no_deadline_means_no_latency_trip(self, predictor, pipeline):
        """A slow forward without a deadline is served, never a strike."""
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock,
                           default_deadline_ms=None)
        forward = predictor.predict_encoded

        def slow_forward(encoded, deadline=None):
            clock.advance(10.0)
            return forward(encoded, deadline=deadline)

        predictor.predict_encoded = slow_forward
        try:
            for _ in range(5):
                assert serve(guard, pipeline).source == "raal"
        finally:
            del predictor.predict_encoded
        assert guard.breakers["raal"].state == CLOSED
        assert guard.breakers["raal"].consecutive_failures == 0

    def test_forward_errors_open_the_gate(self, predictor, pipeline,
                                          telemetry):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        restore = FaultInjector().force_forward_errors(
            predictor.trainer.model)
        try:
            for _ in range(3):
                assert "injected forward" in serve(guard, pipeline).reason
        finally:
            restore()
        gate = guard.breakers["raal"]
        assert (gate.state, gate.cause) == (OPEN, "failures")
        assert telemetry.registry.counter(
            "gate.failures_trips_total").value == 1

    def test_drifting_detector_opens_the_gate(self, predictor, pipeline):
        clock = FakeClock()
        drift = DriftDetector(DriftConfig(
            reference_window=8, current_window=8, min_samples=4,
            ratio_threshold=1.5, consecutive=3, ph_threshold=0.0),
            clock=clock)
        guard = gate_guard(predictor, pipeline, clock,
                           quality=AccuracyTracker(drift=drift),
                           audit=AuditTrail(capacity=64))
        gate = guard.breakers["raal"]
        for factor in [1.0] * 8 + [9.0] * 16:
            result = serve(guard, pipeline)
            if result.source != "raal":
                break
            guard.record_observation(result.request_id,
                                     result.seconds * factor)
        assert (gate.state, gate.cause) == (OPEN, "drift")
        assert serve(guard, pipeline).reason == "raal: circuit open (drift)"

    def test_successful_probe_closes_the_gate(self, predictor, pipeline):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        gate = guard.breakers["raal"]
        gate.trip("drift")
        clock.advance(COOLDOWN - 0.1)
        assert serve(guard, pipeline).source == "gpsj"
        clock.advance(0.2)
        result = serve(guard, pipeline)  # the half-open probe
        assert result.source == "raal" and result.reason is None
        assert (gate.state, gate.cause) == (CLOSED, "drift")

    def test_failed_probe_reopens_for_a_fresh_cooldown(self, predictor,
                                                       pipeline):
        clock = FakeClock()
        guard = gate_guard(predictor, pipeline, clock)
        gate = guard.breakers["raal"]
        gate.trip("failures")
        clock.advance(COOLDOWN + 0.1)
        result = serve(guard, pipeline, deadline=expired(clock))
        assert "deadline_exceeded" in result.reason
        assert (gate.state, gate.cause) == (OPEN, "deadline")
        clock.advance(COOLDOWN - 0.1)
        assert "circuit open" in serve(guard, pipeline).reason

    def test_sheds_never_count_as_strikes(self, predictor, pipeline):
        clock = FakeClock()
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0), clock=clock)
        guard = gate_guard(predictor, pipeline, clock, admission=admission)
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            for _ in range(10):
                assert "shed" in serve(guard, pipeline).reason
        finally:
            restore()
        gate = guard.breakers["raal"]
        assert gate.state == CLOSED and gate.consecutive_failures == 0
        assert gate.cause is None

    def test_shed_probe_does_not_wedge_the_gate(self, predictor, pipeline):
        clock = FakeClock()
        admission = AdmissionController(
            AdmissionConfig(max_in_flight=1, max_queue_depth=0), clock=clock)
        guard = gate_guard(predictor, pipeline, clock, admission=admission)
        gate = guard.breakers["raal"]
        gate.trip("deadline")
        clock.advance(COOLDOWN + 0.1)
        restore = FaultInjector().force_queue_saturation(admission)
        try:
            # The probe is admitted by the gate, then shed by admission:
            # no verdict, so the slot passes to the next caller.
            for _ in range(3):
                result = serve(guard, pipeline)
                assert "shed" in result.reason
                assert gate.state == HALF_OPEN
        finally:
            restore()
        assert serve(guard, pipeline).source == "raal"
        assert gate.state == CLOSED


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
            admission = AdmissionController(
                AdmissionConfig(max_in_flight=1, max_queue_depth=0),
                clock=clock)
            guard = make_guard(predictor, pipeline, admission=admission,
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
            # One gate trip:
            guard.breakers["raal"].trip("drift")
            # One shadow observation:
            ShadowScorer("serve.shadow").score(np.array([1.1]),
                                               lambda: np.array([1.0]))

        registry = telemetry.registry
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "guard.raal.deadline_exceeded_total", "health.state",
                     "serve.shadow.qerror", "gate.drift_trips_total",
                     "guard.raal.breaker_transitions_total",
                     "admission.in_flight"):
            assert name in registry, f"missing metric {name}"
        assert registry.get("predict.shed_total").value == 1
        assert registry.get("health.state").value == 2  # open
        assert registry.get("serve.shadow.qerror").count == 1

        json_text = registry.to_json()
        prom_text = registry.to_prometheus()
        for name in ("predict.shed_total", "predict.deadline_exceeded_total",
                     "health.state", "serve.shadow.qerror"):
            assert name in json_text
            assert name.replace(".", "_") in prom_text
        # Histogram buckets render cumulatively in the Prometheus text.
        assert "serve_shadow_qerror_bucket" in prom_text
