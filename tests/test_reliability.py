"""Tests for the reliability layer: circuit breaker and the guarded
prediction fallback chain under deterministic fault injection.

No test here sleeps: clocks are injected fakes, and every fault is
seeded.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import CostPredictor
from repro.core.selector import PlanSelector
from repro.core.advisor import ResourceAdvisor
from repro.baselines.gpsj import GPSJCostModel
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.reliability import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
    GuardedCostPredictor,
    static_heuristic_cost,
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


# -- circuit breaker -------------------------------------------------------
class TestCircuitBreaker:
    def make(self, threshold=3, cooldown=10.0):
        clock = FakeClock()
        breaker = CircuitBreaker(
            BreakerConfig(failure_threshold=threshold,
                          cooldown_seconds=cooldown), clock=clock)
        return breaker, clock

    def test_starts_closed_and_allows(self):
        breaker, _ = self.make()
        assert breaker.state == CLOSED
        assert breaker.allow()

    def test_trips_after_k_consecutive_failures(self):
        breaker, _ = self.make(threshold=3)
        for _ in range(2):
            breaker.record_failure()
        assert breaker.state == CLOSED
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()

    def test_success_resets_failure_count(self):
        breaker, _ = self.make(threshold=2)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED

    def test_half_open_after_cooldown_then_close_on_success(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        assert not breaker.allow()
        clock.advance(9.9)
        assert not breaker.allow()
        clock.advance(0.2)
        assert breaker.allow()  # the half-open probe
        assert breaker.state == HALF_OPEN
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_half_open_failure_reopens_with_fresh_cooldown(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == OPEN
        clock.advance(9.0)
        assert not breaker.allow()  # cooldown restarted at re-open
        clock.advance(2.0)
        assert breaker.allow()

    def test_half_open_admits_one_probe(self):
        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert [breaker.allow() for _ in range(3)] == [True, False, False]
        breaker.record_success()
        assert [breaker.allow() for _ in range(3)] == [True, True, True]

    def test_half_open_admits_one_probe_across_threads(self):
        import sys
        import threading

        breaker, clock = self.make(threshold=1, cooldown=10.0)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(20):
                breaker.record_failure()
                clock.advance(11.0)
                barrier = threading.Barrier(8, timeout=10)
                admitted = []

                def caller():
                    barrier.wait()
                    admitted.append(breaker.allow())

                threads = [threading.Thread(target=caller) for _ in range(8)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=10)
                assert not any(thread.is_alive() for thread in threads)
                assert sorted(admitted) == [False] * 7 + [True]
                # The probe's thread has ended; the next round's strike
                # re-opens the breaker and frees the slot.
        finally:
            sys.setswitchinterval(interval)

    def test_release_hands_the_probe_on(self):
        import threading

        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()
        # Only the thread holding the probe can hand it on.
        other = threading.Thread(target=breaker.release)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert not breaker.allow()
        breaker.release()
        assert breaker.state == HALF_OPEN
        assert breaker.allow()

    def test_trip_records_its_cause(self):
        breaker, clock = self.make(threshold=3, cooldown=10.0)
        assert breaker.cause is None
        breaker.trip("drift")
        assert (breaker.state, breaker.cause) == (OPEN, "drift")
        breaker.trip("failures")  # no-op while open
        assert breaker.cause == "drift"
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_failure("deadline")  # a failed probe re-opens
        assert (breaker.state, breaker.cause) == (OPEN, "deadline")
        clock.advance(11.0)
        assert breaker.allow()
        breaker.record_success()
        # The last cause is kept after recovery.
        assert (breaker.state, breaker.cause) == (CLOSED, "deadline")

    def test_late_verdict_of_a_call_admitted_before_a_trip(self):
        breaker, clock = self.make(threshold=3, cooldown=10.0)
        assert breaker.allow()  # admitted while closed
        breaker.trip("drift")  # e.g. from a feedback thread
        breaker.record_success()
        assert (breaker.state, breaker.cause) == (OPEN, "drift")
        breaker.record_failure("deadline")
        assert (breaker.state, breaker.cause) == (OPEN, "drift")
        clock.advance(9.0)
        assert not breaker.allow()  # the cooldown was not restarted
        clock.advance(2.0)
        assert breaker.allow()

    def test_success_of_a_non_probe_leaves_half_open(self):
        import threading

        breaker, clock = self.make(threshold=1, cooldown=10.0)
        breaker.record_failure()
        clock.advance(11.0)
        assert breaker.allow()  # this thread holds the probe
        # A call on another thread, admitted before the trip, succeeds.
        other = threading.Thread(target=breaker.record_success)
        other.start()
        other.join(timeout=10)
        assert not other.is_alive()
        assert breaker.state == HALF_OPEN
        breaker.record_success()  # the probe's verdict
        assert breaker.state == CLOSED


# -- guarded prediction ----------------------------------------------------
@pytest.fixture()
def telemetry():
    """Fresh attached telemetry bundle: the guard's ``guard.*`` counters."""
    bundle = obs.Telemetry.create()
    with obs.attached(bundle):
        yield bundle


@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture()
def fresh_predictor(pipeline, trained, tmp_path):
    """A private predictor instance per test, safe to corrupt.

    Round-trips the trained module-scoped predictor through
    persistence so weight corruption in one test never leaks into
    another.
    """
    from repro.core import load_predictor, save_predictor

    source = CostPredictor(trained.encoder, trained.trainer)
    save_predictor(source, tmp_path / "model")
    return load_predictor(tmp_path / "model")


@pytest.fixture()
def guarded(fresh_predictor, pipeline):
    clock = FakeClock()
    guard = GuardedCostPredictor(
        fresh_predictor,
        gpsj=GPSJCostModel(pipeline.catalog),
        breaker_config=BreakerConfig(failure_threshold=2, cooldown_seconds=30.0),
        clock=clock,
    )
    guard._test_clock = clock
    return guard


class TestGuardedPredictor:
    def test_healthy_path_serves_raal_with_provenance(self, guarded, pipeline):
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "raal"
        assert result.reason is None
        assert not result.degraded
        assert np.isfinite(result.seconds) and result.seconds >= 0

    def test_matches_unguarded_predictor(self, guarded, fresh_predictor, pipeline):
        pairs = [(r.plan, r.resources) for r in pipeline.records[:5]]
        np.testing.assert_allclose(
            guarded.predict_many(pairs), fresh_predictor.predict_many(pairs))

    def test_corrupt_weights_fall_back_to_gpsj(self, guarded, pipeline):
        FaultInjector(seed=7).corrupt_weights(guarded.trainer.model)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "raal" in result.reason
        assert np.isfinite(result.seconds) and result.seconds >= 0

    def test_poisoned_vocabulary_falls_back(self, guarded, pipeline):
        FaultInjector(seed=3).poison_vocabulary(guarded.encoder, fraction=1.0)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "non-finite" in result.reason

    def test_encode_fault_falls_back(self, guarded, pipeline):
        FaultInjector().force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "injected encode fault" in result.reason

    def test_double_fault_reaches_heuristic(self, guarded, pipeline):
        injector = FaultInjector()
        injector.force_encode_errors(guarded.encoder)
        guarded.gpsj = None  # GPSJ also unavailable
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "heuristic"
        assert result.seconds > 0

    def test_gpsj_failure_reaches_heuristic(self, guarded, pipeline,
                                            telemetry):
        FaultInjector().force_encode_errors(guarded.encoder)

        def broken(plan, resources):
            raise ValueError("catalog gone")

        guarded.gpsj.estimate = broken
        record = pipeline.records[0]
        result = guarded.predict_explained(record.plan, record.resources)
        assert result.source == "heuristic"
        assert "gpsj: catalog gone" in result.reason
        assert telemetry.registry.counter(
            "guard.gpsj.failures_total").value == 1
        assert telemetry.registry.counter(
            "guard.heuristic.served_total").value == 1

    def test_breaker_trips_then_recovers_via_half_open_probe(
            self, guarded, pipeline, telemetry):
        injector = FaultInjector()
        restore = injector.force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        pair = [(record.plan, record.resources)]

        # K = 2 consecutive failures trip the RAAL breaker.
        assert guarded.predict_many_explained(pair).source == "gpsj"
        assert guarded.predict_many_explained(pair).source == "gpsj"
        assert guarded.breakers["raal"].state == OPEN

        # While open, the stage is skipped without being invoked.
        result = guarded.predict_many_explained(pair)
        assert result.source == "gpsj"
        assert "circuit open" in result.reason
        assert telemetry.registry.counter(
            "guard.raal.skipped_open_total").value == 1

        # Heal the encoder, advance past the cooldown: the half-open
        # probe succeeds and the breaker closes again.
        restore()
        guarded._test_clock.advance(31.0)
        result = guarded.predict_many_explained(pair)
        assert result.source == "raal"
        assert guarded.breakers["raal"].state == CLOSED

    def test_oversized_plan_rejected_without_tripping_breaker(
            self, fresh_predictor, pipeline, telemetry):
        # Shrink the encoder's capacity below the plan's node count.
        fresh_predictor.encoder.structure.max_nodes = 1
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog))
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "max_nodes" in result.reason
        assert guard.breakers["raal"].state == CLOSED
        assert telemetry.registry.counter(
            "guard.raal.rejected_input_total").value == 1

    def test_saturated_output_degrades(self, fresh_predictor, pipeline):
        from dataclasses import replace

        from repro.core.trainer import Trainer

        # A microscopic clamp forces every prediction to saturate.
        tiny = replace(fresh_predictor.trainer.config, log_clamp_max=1e-9)
        fresh_predictor.trainer = Trainer(fresh_predictor.trainer.model, tiny)
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog))
        record = pipeline.records[0]
        result = guard.predict_explained(record.plan, record.resources)
        assert result.source == "gpsj"
        assert "saturated" in result.reason

    def test_empty_pairs(self, guarded):
        explained = guarded.predict_many_explained([])
        assert explained.costs.shape == (0,)

    def test_grid_shape_and_provenance(self, guarded, pipeline):
        plans = [pipeline.records[0].plan, pipeline.records[1].plan]
        profiles = [pipeline.records[0].resources, pipeline.records[1].resources,
                    pipeline.records[2].resources]
        explained = guarded.predict_grid_explained(plans, profiles)
        assert explained.costs.shape == (3, 2)
        assert explained.source == "raal"


def _frozen_and_fresh(pipeline, count=3):
    """The first ``count`` candidate plans of one query, enumerated twice:
    a frozen list (as the serving plan cache holds them) and a fresh
    unfrozen twin."""
    from repro.plan import analyze, enumerate_plans
    from repro.sql import parse

    query = analyze(parse(pipeline.queries[0]), pipeline.catalog)
    frozen = enumerate_plans(query, pipeline.catalog)[:count]
    fresh = enumerate_plans(query, pipeline.catalog)[:count]
    return frozen, fresh


class TestFrozenPlansUnderTheGuard:
    def test_nan_estimate_rejected_like_an_unfrozen_plan(self, guarded,
                                                         pipeline, telemetry):
        frozen, fresh = _frozen_and_fresh(pipeline, count=2)
        for plans in (frozen, fresh):
            plans[1].nodes()[0].est_rows = float("nan")
        for plan in frozen:
            plan.freeze()
        resources = pipeline.records[0].resources
        expected = "plan 1 carries non-finite cardinality estimates"
        assert guarded._validate_inputs(
            [(p, resources) for p in fresh]) == expected
        pairs = [(p, resources) for p in frozen]
        assert guarded._validate_inputs(pairs) == expected
        result = guarded.predict_many_explained(pairs)
        assert result.source != "raal"
        assert f"raal: {expected}" in result.reason
        assert telemetry.registry.counter(
            "guard.raal.rejected_input_total").value == 1
        assert guarded.breakers["raal"].state == CLOSED

    def test_audit_fingerprints_match_fresh_ones(self, fresh_predictor,
                                                 pipeline):
        from repro.encoding import plan_fingerprint
        from repro.obs import AuditTrail

        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog),
            audit=AuditTrail(capacity=64))
        frozen, fresh = _frozen_and_fresh(pipeline)
        for plan in frozen:
            plan.freeze()
        profiles = [r.resources for r in pipeline.records[:2]]
        pairs = [(p, r) for r in profiles for p in frozen]
        twins = [p for _ in profiles for p in fresh]
        explained = guard.predict_many_explained(pairs)
        assert explained.source == "raal"
        for index, twin in enumerate(twins):
            record = guard.audit.get(explained.request_id, index=index)
            assert record.plan_fingerprint == plan_fingerprint(twin)
            assert record.plan_nodes == twin.num_nodes
        # Served costs do not depend on whether the plans were frozen.
        np.testing.assert_array_equal(
            explained.costs,
            guard.predict_many_explained(
                [(p, r) for r in profiles for p in fresh]).costs)


def _grid_profiles(count=24):
    from repro.cluster.resources import ResourceProfile

    return [ResourceProfile(executors=e, executor_cores=c, executor_memory_gb=m)
            for e in (1, 2, 3, 4) for c in (1, 2) for m in (1.0, 2.0, 4.0)][:count]


def _broken_profile(**fields):
    """A profile carrying values its constructor would refuse."""
    from repro.cluster.resources import ResourceProfile

    profile = ResourceProfile()
    for name, value in fields.items():
        object.__setattr__(profile, name, value)
    return profile


def _small_and_big(pipeline):
    """Two candidate plans of one query with different node counts."""
    from repro.plan import analyze, enumerate_plans
    from repro.sql import parse

    for sql in pipeline.queries:
        plans = sorted(enumerate_plans(analyze(parse(sql), pipeline.catalog),
                                       pipeline.catalog),
                       key=lambda plan: plan.num_nodes)
        if plans and plans[0].num_nodes < plans[-1].num_nodes:
            return plans[0], plans[-1]
    raise AssertionError("no query with candidate plans of different sizes")


def _per_pair_reason(pairs, max_nodes):
    """Reference: every check on every pair, in order."""
    for i, (plan, resources) in enumerate(pairs):
        if plan.num_nodes > max_nodes:
            return (f"plan {i} has {plan.num_nodes} nodes, exceeding "
                    f"the encoder's max_nodes={max_nodes}")
        if not np.all(np.isfinite(resources.as_features())):
            return f"resource profile {i} has non-finite features"
        if resources.executor_memory_gb <= 0 or resources.task_slots < 1:
            return f"resource profile {i} has non-positive resources"
        if not plan.estimates_finite():
            return f"plan {i} carries non-finite cardinality estimates"
    return None


class TestValidateOncePerObject:
    """``_validate_inputs`` checks each distinct plan and profile object
    once, and still names the first pair that uses a bad one."""

    def test_grid_checks_each_profile_once(self, guarded, pipeline,
                                           monkeypatch):
        from repro.cluster.resources import ResourceProfile
        from repro.plan.physical import PhysicalPlan

        calls = {"as_features": 0, "estimates_finite": 0}
        as_features = ResourceProfile.as_features
        estimates_finite = PhysicalPlan.estimates_finite

        def counting_features(self, *args, **kwargs):
            calls["as_features"] += 1
            return as_features(self, *args, **kwargs)

        def counting_estimates(self):
            calls["estimates_finite"] += 1
            return estimates_finite(self)

        monkeypatch.setattr(ResourceProfile, "as_features", counting_features)
        monkeypatch.setattr(PhysicalPlan, "estimates_finite",
                            counting_estimates)
        plans = list({id(r.plan): r.plan for r in pipeline.records[:8]}.values())
        assert len(plans) > 1
        pairs = [(p, r) for r in _grid_profiles() for p in plans]
        assert guarded._validate_inputs(pairs) is None
        assert calls == {"as_features": 24, "estimates_finite": len(plans)}

    def test_first_pair_using_a_bad_profile_is_named(self, guarded, pipeline):
        plans = [r.plan for r in pipeline.records[:3]]
        profiles = _grid_profiles(6)
        profiles[4] = _broken_profile(executor_memory_gb=float("nan"))
        pairs = [(p, r) for r in profiles for p in plans]
        k = 4 * len(plans)
        assert guarded._validate_inputs(pairs) == \
            f"resource profile {k} has non-finite features"
        profiles[4] = _broken_profile(executor_memory_gb=0.0)
        pairs = [(p, r) for p in plans for r in profiles]
        assert guarded._validate_inputs(pairs) == \
            "resource profile 4 has non-positive resources"

    def test_reused_plan_with_bad_estimates_names_its_first_pair(
            self, guarded, pipeline):
        frozen, _ = _frozen_and_fresh(pipeline, count=3)
        frozen[2].nodes()[0].est_bytes = float("inf")
        profiles = _grid_profiles(5)
        pairs = [(p, r) for p in frozen for r in profiles]
        assert guarded._validate_inputs(pairs) == \
            f"plan {2 * len(profiles)} carries non-finite cardinality estimates"
        pairs = [(p, r) for r in profiles for p in frozen]
        assert guarded._validate_inputs(pairs) == \
            "plan 2 carries non-finite cardinality estimates"

    def test_oversized_plan_names_its_first_pair(self, guarded, pipeline,
                                                 monkeypatch):
        small, big = _small_and_big(pipeline)
        structure = guarded.predictor.encoder.structure
        monkeypatch.setattr(structure, "max_nodes", small.num_nodes)
        profiles = _grid_profiles(4)
        expected = (f"has {big.num_nodes} nodes, exceeding the encoder's "
                    f"max_nodes={small.num_nodes}")
        pairs = [(p, r) for p in (small, big) for r in profiles]
        assert guarded._validate_inputs(pairs) == f"plan 4 {expected}"
        pairs = [(p, r) for r in profiles for p in (small, big)]
        assert guarded._validate_inputs(pairs) == f"plan 1 {expected}"

    def test_same_reason_as_a_per_pair_walk(self, guarded, pipeline):
        small, big = _small_and_big(pipeline)
        bad_estimates, _ = _frozen_and_fresh(pipeline, count=1)
        bad_estimates[0].nodes()[0].est_rows = float("nan")
        max_nodes = guarded.predictor.encoder.structure.max_nodes
        good = _grid_profiles(3)
        nan_profile = _broken_profile(executors=float("nan"))
        zero_profile = _broken_profile(executor_memory_gb=-1.0)
        plans = [small, big, bad_estimates[0]]
        for profiles in (good, good + [zero_profile], [nan_profile] + good,
                         good[:1] + [zero_profile, nan_profile]):
            for pairs in ([(p, r) for r in profiles for p in plans],
                          [(p, r) for p in plans for r in profiles],
                          [(p, r) for r in profiles for p in plans[:2]]):
                assert guarded._validate_inputs(pairs) == \
                    _per_pair_reason(pairs, max_nodes)


class TestConcurrentSaturation:
    """The saturation verdict belongs to the call that produced it.

    Predictors configured from one base share its trainer, and the HTTP
    handler threads run guarded calls concurrently, so a count kept on the trainer could be
    overwritten by another call between the forward and the check.
    """

    def test_each_call_judges_its_own_saturation(self, fresh_predictor,
                                                 pipeline):
        import threading
        from dataclasses import replace

        from repro.core.trainer import Trainer

        pairs = [(r.plan, r.resources) for r in pipeline.records[:40]]
        log_preds = fresh_predictor.trainer.predict_log(
            fresh_predictor.encoder.encode_many(pairs))
        order = np.argsort(log_preds)
        healthy = [pairs[i] for i in order[:3]]
        saturating = [pairs[i] for i in order[-3:]]
        low, high = log_preds[order[2]], log_preds[order[-3]]
        assert low < high
        # Clamp between the two sets: every prediction of the
        # saturating batch is clamped, none of the healthy batch's.
        fresh_predictor.trainer = Trainer(
            fresh_predictor.trainer.model,
            replace(fresh_predictor.trainer.config,
                    log_clamp_max=float((low + high) / 2)))
        barrier = threading.Barrier(2, timeout=10)
        forward = fresh_predictor.predict_encoded

        def rendezvous(encoded, deadline=None):
            out = forward(encoded, deadline=deadline)
            # Both forwards finish before either call checks its count.
            barrier.wait()
            return out

        fresh_predictor.predict_encoded = rendezvous
        guard = GuardedCostPredictor(
            fresh_predictor, gpsj=GPSJCostModel(pipeline.catalog),
            breaker_config=BreakerConfig(failure_threshold=1000))
        for _ in range(5):
            results: dict[str, object] = {}

            def serve(name, batch):
                results[name] = guard.predict_many_explained(batch)

            threads = [threading.Thread(target=serve, args=args) for args in
                       (("saturating", saturating), ("healthy", healthy))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30)
            assert results["saturating"].source == "gpsj"
            assert "saturated" in results["saturating"].reason
            assert results["healthy"].source == "raal"
            assert results["healthy"].reason is None


class TestFaultInjectorDeterminism:
    def test_same_seed_same_corruption(self, pipeline, trained, tmp_path):
        from repro.core import load_predictor, save_predictor

        source = CostPredictor(trained.encoder, trained.trainer)
        save_predictor(source, tmp_path / "a")
        a = load_predictor(tmp_path / "a")
        b = load_predictor(tmp_path / "a")
        FaultInjector(seed=11).corrupt_weights(a.trainer.model, fraction=0.1)
        FaultInjector(seed=11).corrupt_weights(b.trainer.model, fraction=0.1)
        for (name_a, pa), (_, pb) in zip(a.trainer.model.named_parameters(),
                                         b.trainer.model.named_parameters()):
            np.testing.assert_array_equal(np.isnan(pa.data), np.isnan(pb.data),
                                          err_msg=name_a)


class TestHeuristic:
    def test_positive_and_finite(self, pipeline):
        for record in pipeline.records[:5]:
            cost = static_heuristic_cost(record.plan, record.resources)
            assert np.isfinite(cost) and cost > 0

    def test_bigger_plans_cost_more(self, pipeline):
        plans = sorted((r.plan for r in pipeline.records[:10]),
                       key=lambda p: p.num_nodes)
        resources = pipeline.records[0].resources
        small = static_heuristic_cost(plans[0], resources)
        large = static_heuristic_cost(plans[-1], resources)
        if plans[-1].num_nodes > plans[0].num_nodes:
            assert large >= small


class TestIntegrationWithSelectorAndAdvisor:
    def test_selector_surfaces_provenance_on_degradation(
            self, guarded, pipeline):
        FaultInjector().force_encode_errors(guarded.encoder)
        record = pipeline.records[0]
        selector = PlanSelector(guarded, pipeline.catalog)
        result = selector.select(
            query=None, resources=record.resources, candidates=[record.plan])
        assert result.cost_source == "gpsj"
        assert result.degraded
        assert result.degradation_reason is not None

    def test_selector_healthy_provenance(self, guarded, pipeline):
        record = pipeline.records[0]
        selector = PlanSelector(guarded, pipeline.catalog)
        result = selector.select(
            query=None, resources=record.resources, candidates=[record.plan])
        assert result.cost_source == "raal"
        assert not result.degraded

    def test_advisor_carries_cost_source(self, guarded, pipeline):
        FaultInjector(seed=1).corrupt_weights(guarded.trainer.model)
        advisor = ResourceAdvisor(guarded)
        plans = [pipeline.records[0].plan]
        rec = advisor.cheapest_meeting_sla(plans, sla_seconds=1e12)
        assert rec is not None
        assert rec.cost_source == "gpsj"
