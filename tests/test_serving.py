"""Tests for the serving layer: micro-batching, model shards and hot
swap, the JSON service endpoints, the stdlib HTTP front-end, and the
concurrent-clients-during-hot-swap integration contract (zero errors,
only old-or-new provenance, never a torn state).

The micro-batcher tests run against a fake ``execute`` and force
fusion by holding one caller inside a batch while others queue, so
they are deterministic on loaded CI machines; the service
and hot-swap tests share one small trained model via module-scoped
fixtures (the same SMOKE pipeline the overload tests use).
"""

from __future__ import annotations

import http.client
import io
import json
import socket
import sys
import threading
import time
import urllib.error
import urllib.request
import weakref

import numpy as np
import pytest

import repro.reliability.guard as guard_module
from repro.cluster.resources import PAPER_CLUSTER
from repro.core import CostPredictor
from repro.core.persistence import (checkpoint_fingerprint, save_predictor)
from repro.errors import (CheckpointError, DeadlineExceeded, DeployConflict,
                          ModelNotFound, PredictionError, ServingError)
from repro.eval.experiments import SMOKE, ExperimentPipeline
from repro.reliability import Deadline
from repro.serving import (MicroBatcher, PredictionService, ROUTES,
                           ServingConfig, serve)
from repro.serving.http import _Handler
from tests.faults import FaultInjector

#: The per-model ``/healthz`` fields docs/API.md documents.
HEALTHZ_MODEL_KEYS = {"version", "gate", "breakers", "candidate", "batcher"}


# -- shared fixtures -------------------------------------------------------
@pytest.fixture(scope="module")
def pipeline():
    return ExperimentPipeline(dataset="imdb", scale=SMOKE)


@pytest.fixture(scope="module")
def trained(pipeline):
    return pipeline.train_variant("RAAL", epochs=3)


@pytest.fixture(scope="module")
def checkpoint(trained, tmp_path_factory):
    predictor = CostPredictor(trained.encoder, trained.trainer)
    path = tmp_path_factory.mktemp("serving") / "ckpt"
    save_predictor(predictor, path)
    return str(path)


@pytest.fixture()
def service(pipeline, checkpoint):
    svc = PredictionService(
        ServingConfig(default_deadline_ms=2000.0),
        catalog=pipeline.catalog)
    svc.load_model(checkpoint)
    yield svc
    svc.close()


@pytest.fixture(scope="module")
def sql(pipeline):
    return pipeline.queries[0]


# -- micro-batcher ---------------------------------------------------------
class FakeResult:
    def __init__(self, costs):
        self.costs = np.asarray(costs)


def _wait_until(predicate, timeout=10.0):
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


class HeldBatch:
    """Hold a batcher inside a first one-request batch.

    ``start()`` submits that request from its own thread, which runs
    the batch, and returns once ``execute`` is running it;
    ``queue(...)`` submits more requests from their own threads and
    returns once the batcher shows them queued behind the held batch;
    ``release()`` lets the held batch finish and joins every client.
    Fusion is then forced by the caller-runs rule, not by timing: the
    next batch takes the whole queue.
    """

    def __init__(self, batcher):
        self.batcher = batcher
        self.running = threading.Event()
        self.go = threading.Event()
        self.results: dict = {}
        self.errors: dict = {}
        self._threads: list = []
        inner = batcher.execute

        def execute(pairs, deadline, sizes):
            if not self.running.is_set():
                self.running.set()
                assert self.go.wait(10.0), "held batch never released"
            return inner(pairs, deadline, sizes)

        batcher.execute = execute

    def _spawn(self, key, call):
        def client():
            try:
                self.results[key] = call()
            except Exception as exc:
                self.errors[key] = exc

        thread = threading.Thread(target=client)
        self._threads.append(thread)
        thread.start()

    def start(self, pairs=(("p0", "r"),)):
        self._spawn("held", lambda: self.batcher.submit(list(pairs)))
        assert self.running.wait(10.0), "the held batch never ran"

    def queue(self, key, call):
        """Run ``call`` (one submit to the batcher) on its own thread."""
        queued = self.batcher.snapshot()["queued"]
        self._spawn(key, call)
        _wait_until(lambda: self.batcher.snapshot()["queued"] > queued)

    def submit(self, key, pairs, deadline=None):
        self.queue(key, lambda: self.batcher.submit(pairs, deadline=deadline))

    def release(self):
        self.go.set()
        for thread in self._threads:
            thread.join(timeout=10.0)
        assert not any(t.is_alive() for t in self._threads)


class TestMicroBatcher:
    def _echo_execute(self, calls):
        def execute(pairs, deadline, sizes):
            assert sum(sizes) == len(pairs)
            calls.append((list(pairs), deadline))
            return FakeResult(np.arange(len(pairs), dtype=float))
        return execute

    def test_lone_submit_on_idle_batcher_runs_at_once(self):
        """An idle batcher runs a lone request straight away, as a batch
        of one, on the submitting thread: nothing else is queued, so
        nothing is waited for and nothing is handed off."""
        calls = []
        threads = []
        echo = self._echo_execute(calls)

        def execute(pairs, deadline, sizes):
            threads.append(threading.current_thread())
            return echo(pairs, deadline, sizes)

        batcher = MicroBatcher(execute)
        item = batcher.submit([("p", "r"), ("p2", "r")], timeout=10.0)
        assert threads == [threading.current_thread()]
        assert len(calls) == 1 and len(calls[0][0]) == 2
        assert (item.offset, item.member, item.batch_size) == (0, 0, 2)
        snap = batcher.snapshot()
        assert (snap["batches"], snap["coalesced_requests"],
                snap["queued"]) == (1, 1, 0)
        batcher.close()

    def test_requests_queued_behind_a_running_batch_fuse_into_one(self):
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        held = HeldBatch(batcher)
        held.start()
        for i in range(3):
            held.submit(i, [("p", f"r{i}"), ("p", f"s{i}")])
        held.release()
        # Exactly two batches: the held one, then the whole queue.
        assert [len(pairs) for pairs, _ in calls] == [1, 6]
        assert held.results["held"].batch_size == 1
        assert sorted(held.results[i].member for i in range(3)) == [0, 1, 2]
        snap = batcher.snapshot()
        assert (snap["batches"], snap["batched_pairs"],
                snap["coalesced_requests"], snap["queued"]) == (2, 7, 4, 0)
        batcher.close()

    def test_concurrent_submissions_fuse_into_one_batch(self):
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        held = HeldBatch(batcher)
        held.start()
        for i in range(4):
            held.submit(i, [("plan", f"prof{i}")])
        held.release()
        batcher.close()
        # All four queued requests → one fused execute after the held one.
        assert len(calls) == 2
        assert len(calls[1][0]) == 4
        items = [held.results[i] for i in range(4)]
        assert [item.offset for item in items] == [0, 1, 2, 3]
        for i, item in enumerate(items):
            assert item.batch_size == 4
            # Each caller's slice is its own pair's score.
            assert calls[1][0][item.offset] == ("plan", f"prof{i}")
            assert item.result.costs[item.offset] == float(item.offset)

    def test_stress_every_caller_gets_its_own_slice(self):
        """More submitters than cores with a short switch interval: no
        request is lost, duplicated or handed another caller's slice."""
        def execute(pairs, deadline, sizes):
            assert sum(sizes) == len(pairs)
            return FakeResult([float(tag) for _, tag in pairs])

        batcher = MicroBatcher(execute)
        clients, rounds = 8, 50
        bad = []

        def client(c):
            for r in range(rounds):
                tags = [c * 1000 + r * 2, c * 1000 + r * 2 + 1]
                item = batcher.submit([("p", t) for t in tags], timeout=10.0)
                got = item.result.costs[item.offset:item.offset + 2]
                if list(got) != [float(t) for t in tags]:
                    bad.append((tags, list(got)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client, args=(c,))
                       for c in range(clients)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert bad == []
        snap = batcher.snapshot()
        assert snap["coalesced_requests"] == clients * rounds
        assert snap["batched_pairs"] == 2 * clients * rounds
        assert snap["queued"] == 0
        batcher.close()

    def test_expired_deadline_fails_fast_without_queueing(self):
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        deadline = Deadline.from_ms(0.001)
        time.sleep(0.01)
        with pytest.raises(DeadlineExceeded):
            batcher.submit([("p", "r")], deadline=deadline)
        assert calls == []  # never reached execute
        batcher.close()

    def test_batch_runs_under_tightest_member_deadline(self):
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        tight = Deadline.from_ms(60_000.0)
        loose = Deadline.from_ms(120_000.0)
        held = HeldBatch(batcher)
        held.start()
        held.submit("loose", [("p", "r")], deadline=loose)
        held.submit("tight", [("p", "r")], deadline=tight)
        held.release()
        assert len(calls) == 2 and len(calls[1][0]) == 2
        assert calls[1][1] is tight
        batcher.close()

    def test_execute_failure_scatters_to_all_members(self):
        def explode(pairs, deadline, sizes):
            raise PredictionError("boom")

        batcher = MicroBatcher(explode)
        held = HeldBatch(batcher)
        held.start()
        held.submit(0, [("p", "r")])
        held.submit(1, [("p", "r")])
        held.release()
        assert set(held.errors) == {"held", 0, 1}
        assert all(isinstance(e, PredictionError)
                   for e in held.errors.values())
        # The batcher survives a failed batch.
        calls = []
        batcher.execute = self._echo_execute(calls)
        batcher.submit([("p", "r")])
        assert len(calls) == 1
        batcher.close()

    def test_a_batch_that_dies_unanswered_fails_its_members(self):
        """If running a fused batch raises before every member is
        answered, the members still get a typed error, and the batcher
        is free for the next request."""
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        held = HeldBatch(batcher)
        held.start()
        held.submit(0, [("p", "r")])
        held.submit(1, [("p", "r")])
        run_batch = batcher._run_batch

        def dies_on_fused(batch):
            if len(batch) > 1:
                raise RuntimeError("scatter lost")
            run_batch(batch)

        batcher._run_batch = dies_on_fused
        held.release()
        assert "held" in held.results
        errors = sorted(type(e).__name__ for e in held.errors.values())
        assert errors == ["PredictionError", "RuntimeError"]
        assert batcher.submit([("p", "r")]).batch_size == 1
        batcher.close()

    def test_close_during_a_caller_led_batch(self):
        """``close()`` fails the requests queued behind a running batch,
        waits for that batch, and the caller running it gets its answer."""
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        held = HeldBatch(batcher)
        held.start()
        held.submit(0, [("p", "r")])
        held.submit(1, [("p", "r")])
        closer = threading.Thread(target=batcher.close)
        closer.start()
        _wait_until(lambda: batcher.snapshot()["queued"] == 0)
        assert closer.is_alive()  # waiting for the held batch
        held.release()
        closer.join(timeout=10.0)
        assert not closer.is_alive()
        assert set(held.errors) == {0, 1}
        assert all(isinstance(e, PredictionError)
                   and "closed" in str(e) for e in held.errors.values())
        assert held.results["held"].batch_size == 1
        assert [len(pairs) for pairs, _ in calls] == [1]

    def test_submit_after_close_runs_inline(self):
        calls = []
        batcher = MicroBatcher(self._echo_execute(calls))
        batcher.submit([("p", "r")])
        batcher.close()
        item = batcher.submit([("p", "r")])
        assert item.batch_size == 1
        assert len(calls) == 2

    def test_empty_pairs_and_bad_config_raise(self):
        batcher = MicroBatcher(lambda p, d, s: None)
        with pytest.raises(PredictionError):
            batcher.submit([])
        # The batching window, its early-close bound and the on/off
        # switch are gone.
        for retired in ({"window_ms": 2.0}, {"max_pairs": 64},
                        {"clock": time.monotonic}, {"batching": False}):
            with pytest.raises(TypeError):
                MicroBatcher(lambda p, d, s: None, **retired)


# -- versioning ------------------------------------------------------------
class TestVersioning:
    def test_fingerprint_is_stable_and_content_bound(self, checkpoint,
                                                     tmp_path):
        first = checkpoint_fingerprint(checkpoint)
        assert first == checkpoint_fingerprint(checkpoint)
        assert len(first) == 64 and int(first, 16) >= 0
        with pytest.raises(CheckpointError):
            checkpoint_fingerprint(tmp_path / "nothing-here")

    def test_versions_embed_generation_and_fingerprint(self, service,
                                                       checkpoint):
        shard = service.registry.shard("default")
        version = shard.current.version
        assert version.startswith("g1-")
        assert version.endswith(checkpoint_fingerprint(checkpoint)[:12])


# -- hot swap --------------------------------------------------------------
class TestHotSwap:
    def test_deploy_shadow_and_auto_promote(self, service, checkpoint, sql):
        v1 = service.registry.shard("default").current.version
        outcome = service.deploy({"checkpoint": checkpoint,
                                  "shadow_requests": 2, "max_qerror": 10.0})
        assert outcome["state"] == "shadowing"
        assert outcome["version"].startswith("g2-")
        for _ in range(3):
            service.predict({"sql": sql})
        shard = service.registry.shard("default")
        assert shard.current.version == outcome["version"]
        assert shard.candidate is None
        assert shard._previous.version == v1
        # And back again.
        rolled = service.rollback({})
        assert rolled["version"] == v1

    def test_health_gauge_follows_the_served_version(
            self, service, checkpoint, monkeypatch):
        # A fresh board: open gates of guards other tests left behind
        # must not count here.
        monkeypatch.setattr(guard_module, "_NOT_CLOSED",
                            weakref.WeakKeyDictionary())
        gauge = service.telemetry.registry.gauge("health.state")
        service.registry.shard("default").current.guard.breakers[
            "raal"].trip("drift")
        assert (gauge.value, service.health()["status"]) == (2, "degraded")
        service.deploy({"checkpoint": checkpoint, "shadow_requests": 0})
        # The drifting version is kept for rollback but no longer served.
        assert (gauge.value, service.health()["status"]) == (0, "ok")
        service.rollback({})
        assert (gauge.value, service.health()["status"]) == (2, "degraded")

    def test_shadow_leaves_ground_truth_quality_untouched(
            self, service, checkpoint, sql):
        """The candidate shadow publishes under ``serve.shadow.*``; the
        incumbent's ``quality.*`` metrics move only on posted feedback."""
        registry = service.telemetry.registry

        def quality():
            snapshot = registry.snapshot()
            return {name: snapshot[name] for name in registry.names()
                    if name.startswith("quality.")}

        before = quality()
        outcome = service.deploy({"checkpoint": checkpoint,
                                  "shadow_requests": 2,
                                  "auto_promote": False})
        assert outcome["state"] == "shadowing"
        for _ in range(3):
            service.predict({"sql": sql})
        assert quality() == before
        candidate = service.models()["models"]["default"]["candidate"]
        assert candidate["shadow_samples"] == 3
        assert candidate["divergence_mean"] == pytest.approx(1.0)
        assert registry.counter("serve.shadow.samples_total").value >= 3

    def test_instant_promote_without_shadowing(self, service, checkpoint):
        outcome = service.deploy({"checkpoint": checkpoint,
                                  "shadow_requests": 0})
        assert outcome["state"] == "promoted"

    def test_conflicting_candidate_rejected(self, service, checkpoint):
        service.deploy({"checkpoint": checkpoint, "shadow_requests": 50,
                        "auto_promote": False})
        with pytest.raises(DeployConflict):
            service.deploy({"checkpoint": checkpoint, "shadow_requests": 1})

    def test_gate_rejects_candidate_with_impossible_bar(self, service,
                                                        checkpoint, sql):
        # q-error is >= 1 by construction, so a bar below 1 can never
        # pass: the candidate must be rejected, incumbent unchanged.
        incumbent = service.registry.shard("default").current.version
        service.deploy({"checkpoint": checkpoint, "shadow_requests": 1,
                        "max_qerror": 0.5})
        for _ in range(2):
            service.predict({"sql": sql})
        shard = service.registry.shard("default")
        assert shard.current.version == incumbent
        assert shard.candidate is None

    def test_corrupt_checkpoint_refused(self, service, checkpoint, tmp_path):
        import shutil

        bad = tmp_path / "bad-ckpt"
        shutil.copytree(checkpoint, bad)
        (bad / "model.npz").write_bytes(b"not a model")
        with pytest.raises(CheckpointError):
            service.deploy({"checkpoint": str(bad)})

    def test_rollback_without_previous_conflicts(self, pipeline, checkpoint):
        svc = PredictionService(ServingConfig(), catalog=pipeline.catalog)
        svc.load_model(checkpoint)
        try:
            with pytest.raises(DeployConflict):
                svc.rollback({})
        finally:
            svc.close()

    def test_unknown_model_not_found(self, service):
        with pytest.raises(ModelNotFound):
            service.predict({"sql": "select count(*) from title t",
                             "model": "nope"})


# -- plan-side memo --------------------------------------------------------
class TestPlanSideMemo:
    """A served model's weights are frozen, so its executor computes a
    plan's plan side once per model version; each version fills its
    own memo."""

    @staticmethod
    def _counts(service):
        registry = service.telemetry.registry
        return (registry.counter("forward.plan_side.hits_total").value,
                registry.counter("forward.plan_side.misses_total").value)

    @staticmethod
    def _executor(model):
        return model.guard.predictor.executor

    def test_served_weights_are_frozen(self, service):
        from repro.nn.inference import is_immutable

        model = service.registry.shard("default").current
        predictor = model.guard.predictor
        params = predictor.trainer.model.parameters()
        assert all(is_immutable(p.data) for p in params)
        with pytest.raises(ValueError):
            params[0].data[...] = 0.0
        assert predictor.executor.memo_size == predictor.encoder.cache_size

    def test_repeat_predict_is_bitwise_and_all_hits(self, service, sql):
        first = service.predict({"sql": sql})
        hits, misses = self._counts(service)
        assert hits == 0 and misses > 0
        second = service.predict({"sql": sql})
        assert ([p["seconds"] for p in second["plans"]]
                == [p["seconds"] for p in first["plans"]])
        assert self._counts(service) == (hits + misses, misses)

    def test_candidate_shadow_uses_its_own_memo(self, service, checkpoint,
                                                sql):
        shard = service.registry.shard("default")
        incumbent = self._executor(shard.current)
        service.predict({"sql": sql})
        hits, misses = self._counts(service)
        distinct = len(incumbent._memo)
        assert misses == distinct > 0
        outcome = service.deploy({"checkpoint": checkpoint,
                                  "shadow_requests": 1, "max_qerror": 10.0})
        assert outcome["state"] == "shadowing"
        candidate = self._executor(shard.candidate.model)
        assert candidate._memo is not incumbent._memo
        # The incumbent serves from its memo; the shadow computes every
        # plan on the candidate's own weights, then promotes.
        service.predict({"sql": sql})
        assert self._counts(service) == (hits + distinct, misses + distinct)
        assert self._executor(shard.current) is candidate
        assert len(candidate._memo) == distinct
        service.predict({"sql": sql})
        assert self._counts(service) == (hits + 2 * distinct,
                                         misses + distinct)


# -- service endpoints -----------------------------------------------------
class TestService:
    def test_predict_response_contract(self, service, sql):
        body = service.predict({"sql": sql})
        assert body["model"] == "default"
        assert body["model_version"].startswith("g")
        assert body["request_id"]
        assert body["source"] in ("raal", "gpsj", "heuristic")
        plan_names = [p["plan"] for p in body["plans"]]
        assert body["chosen"] in plan_names
        costs = [p["seconds"] for p in body["plans"]]
        assert min(costs) == body["plans"][plan_names.index(
            body["chosen"])]["seconds"]
        assert all(c >= 0 for c in costs)

    def test_feedback_closes_the_loop(self, service, sql):
        body = service.predict({"sql": sql})
        plan = body["plans"][0]
        out = service.feedback({"request_id": body["request_id"],
                                "observed_seconds": plan["seconds"] * 2.0,
                                "index": plan["feedback_index"]})
        assert out["recorded"]
        assert out["q_error"] == pytest.approx(2.0)

    def test_fused_requests_keep_their_own_feedback_handles(
            self, pipeline, checkpoint, sql):
        """A grid and a predict fused into one batch, the predict at
        fused offsets >= 16 (the audit trail's per-request cap): each
        gets its own request id with indexes from 0, and every returned
        handle records against the cost that request was served."""
        svc = PredictionService(ServingConfig(), catalog=pipeline.catalog)
        svc.load_model(checkpoint)
        try:
            n_plans = len(svc.predict({"sql": sql})["plans"])
            profiles = [{"executors": 1 + k % 4}
                        for k in range(16 // n_plans + 1)]
            held = HeldBatch(svc.registry.shard("default").batcher)
            held.start([(plan, PAPER_CLUSTER)
                        for plan in svc._plans_for(sql)])
            # Queue the grid first, then the predict, behind the held
            # batch: the next batch fuses exactly these two requests.
            held.queue("grid", lambda: svc.predict_grid(
                {"sql": sql, "profiles": profiles}))
            held.queue("predict", lambda: svc.predict({"sql": sql}))
            held.release()
            assert not held.errors, held.errors
            bodies = held.results
            fused = len(profiles) * n_plans + n_plans
            assert bodies["grid"]["batch_pairs"] == fused
            assert bodies["predict"]["batch_pairs"] == fused
            assert (bodies["grid"]["request_id"]
                    != bodies["predict"]["request_id"])
            assert bodies["grid"]["feedback_index"] == 0
            handles = [(bodies["grid"]["request_id"], 0,
                        bodies["grid"]["costs"][0][0])]
            handles += [(bodies["predict"]["request_id"],
                         plan["feedback_index"], plan["seconds"])
                        for plan in bodies["predict"]["plans"]]
            assert [h[1] for h in handles[1:]] == list(range(n_plans))
            for request_id, index, served in handles:
                out = svc.feedback({"request_id": request_id,
                                    "index": index,
                                    "observed_seconds": served * 2.0})
                assert out["recorded"], (request_id, index)
                assert out["q_error"] == pytest.approx(2.0)
        finally:
            svc.close()

    @pytest.mark.parametrize("field, value", [
        ("shed_mode", "reject"), ("max_in_flight", 1),
        ("max_queue_depth", 0)])
    def test_retired_admission_fields_raise(self, field, value):
        with pytest.raises(TypeError):
            ServingConfig(**{field: value})

    def test_learned_stage_runs_one_call_at_a_time(self, service, sql):
        """The batcher is serving's one concurrency bound: under 8
        contending client threads the shard's learned forward never has
        a second call in flight."""
        predictor = service.registry.shard("default").current.guard.predictor
        forward = predictor.predict_encoded
        lock = threading.Lock()
        in_flight = [0]
        peak = [0]
        calls = [0]

        def counted(*args, **kwargs):
            with lock:
                in_flight[0] += 1
                calls[0] += 1
                peak[0] = max(peak[0], in_flight[0])
            try:
                time.sleep(0.0005)  # widen the window a second call needs
                return forward(*args, **kwargs)
            finally:
                with lock:
                    in_flight[0] -= 1

        predictor.predict_encoded = counted
        errors: list = []

        def client():
            try:
                for _ in range(15):
                    service.predict({"sql": sql})
            except Exception as exc:  # any error fails the contract
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=client) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
            del predictor.predict_encoded
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert peak[0] == 1
        # Contention was real: queued requests fused into shared batches.
        assert calls[0] < 8 * 15

    def test_predict_grid_shape(self, service, sql):
        body = service.predict_grid({
            "sql": sql,
            "profiles": [{}, {"executors": 4, "memory_gb": 8}]})
        assert body["profiles"] == 2
        assert len(body["costs"]) == 2
        assert len(body["costs"][0]) == len(body["plans"])
        assert body["request_id"]

    def test_plan_cache_reuses_candidate_plans(self, service, sql):
        service.predict({"sql": sql})
        before = len(service._plan_cache)
        service.predict({"sql": "  " + sql + "  "})  # normalizes to same key
        assert len(service._plan_cache) == before

    def test_cached_plans_are_frozen(self, service, sql):
        from repro.plan import analyze, enumerate_plans
        from repro.sql import parse

        service.predict({"sql": sql})
        plans = service._plans_for(sql)
        assert plans is service._plans_for(" " + sql)
        assert plans and all(plan.frozen for plan in plans)
        fresh = enumerate_plans(analyze(parse(sql), service.catalog),
                                service.catalog)
        assert [p.fingerprint() for p in plans] == \
            [p.fingerprint() for p in fresh]

    def test_malformed_bodies_rejected(self, service, sql):
        for bad in (
            {},                                        # no sql
            {"sql": 42},                               # wrong type
            {"sql": sql, "resources": [1]},            # not an object
            {"sql": sql, "resources": {"gpus": 8}},    # unknown key
            {"sql": sql, "deadline_ms": -5},           # non-positive
            {"sql": sql, "deadline_ms": "soon"},       # not a number
            {"sql": sql, "model": ""},                 # empty model id
        ):
            with pytest.raises(ServingError):
                service.predict(bad)
        with pytest.raises(ServingError):
            service.predict_grid({"sql": sql, "profiles": []})
        with pytest.raises(ServingError):
            service.feedback({"request_id": "", "observed_seconds": 1.0})
        with pytest.raises(ServingError):
            service.feedback({"request_id": "req-1",
                              "observed_seconds": "fast"})
        with pytest.raises(ServingError):
            service.deploy({})

    def test_health_and_models_snapshots(self, service, sql):
        service.predict({"sql": sql})
        health = service.health()
        assert health["status"] == "ok"
        model = health["models"]["default"]
        assert set(model) == HEALTHZ_MODEL_KEYS
        assert model["gate"] == {"state": "closed", "cause": None}
        assert model["batcher"]["batches"] == 1
        assert "batching" not in health
        models = service.models()
        assert models["models"]["default"]["version"].startswith("g")
        metrics = service.metrics_text()
        assert "serve_predict_requests_total" in metrics


# -- HTTP front-end --------------------------------------------------------
def _post(base, path, body):
    request = urllib.request.Request(
        base + path, data=json.dumps(body).encode(),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


def _get(base, path):
    try:
        with urllib.request.urlopen(base + path, timeout=30.0) as response:
            raw = response.read()
            if "json" in (response.headers.get("Content-Type") or ""):
                return response.status, json.loads(raw)
            return response.status, raw.decode()
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture()
def http_server(pipeline, checkpoint):
    svc = PredictionService(ServingConfig(), catalog=pipeline.catalog)
    svc.load_model(checkpoint)
    srv = serve(svc, port=0, background=True)
    yield srv
    srv.close()


@pytest.fixture()
def server(http_server):
    return f"http://127.0.0.1:{http_server.port}"


class TestHTTP:
    def test_predict_and_feedback_over_http(self, server, sql):
        status, body = _post(server, "/v1/predict", {"sql": sql})
        assert status == 200
        assert body["model_version"].startswith("g1-")
        status, out = _post(server, "/v1/feedback", {
            "request_id": body["request_id"],
            "observed_seconds": body["plans"][0]["seconds"],
            "index": body["plans"][0]["feedback_index"]})
        assert status == 200 and out["recorded"]

    def test_error_statuses_match_docs(self, server, sql):
        assert _post(server, "/v1/predict", {})[0] == 400
        assert _post(server, "/v1/predict",
                     {"sql": "SELEC broken FRM"})[0] == 400
        assert _post(server, "/v1/predict",
                     {"sql": sql, "model": "ghost"})[0] == 404
        assert _get(server, "/no/such/path")[0] == 404
        assert _get(server, "/v1/predict")[0] == 405
        assert _post(server, "/admin/promote", {})[0] == 409
        assert _post(server, "/admin/rollback", {})[0] == 409
        # A budget that has run out before the batcher sees the request.
        status, body = _post(server, "/v1/predict",
                             {"sql": sql, "deadline_ms": 1e-9})
        assert status == 504 and body["type"] == "DeadlineExceeded"
        # Raw non-JSON body.
        request = urllib.request.Request(
            server + "/v1/predict", data=b"not json",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30.0)
        assert excinfo.value.code == 400

    def test_server_deadline_degrades_a_hung_forward(self, pipeline,
                                                     checkpoint, sql):
        """A server deadline blown inside the learned forward is
        answered 200 from the analytic stage, never 504."""
        svc = PredictionService(ServingConfig(default_deadline_ms=50.0),
                                catalog=pipeline.catalog)
        svc.load_model(checkpoint)
        model = svc.registry.shard("default").current.guard.trainer.model
        restore = FaultInjector().force_bucket_hang(model, seconds=0.3)
        srv = serve(svc, port=0, background=True)
        try:
            status, body = _post(f"http://127.0.0.1:{srv.port}",
                                 "/v1/predict", {"sql": sql})
        finally:
            restore()
            srv.close()
        assert status == 200
        assert body["source"] == "gpsj"
        assert "raal: deadline_exceeded" in body["reason"]

    def test_health_metrics_and_models(self, server, sql):
        _post(server, "/v1/predict", {"sql": sql})
        status, health = _get(server, "/healthz")
        assert status == 200 and health["status"] == "ok"
        assert set(health["models"]["default"]) == HEALTHZ_MODEL_KEYS
        status, metrics = _get(server, "/metrics")
        assert status == 200
        assert "serve_predict_requests_total" in metrics
        status, models = _get(server, "/v1/models")
        assert status == 200 and "default" in models["models"]

    def test_every_route_is_reachable(self, server, checkpoint, sql):
        """Each declared route answers with a documented status (not
        404/500): the routing table and handlers stay in sync."""
        bodies = {
            "/v1/predict": {"sql": sql},
            "/v1/predict_grid": {"sql": sql, "profiles": [{}]},
            "/v1/feedback": {"request_id": "req-unknown",
                             "observed_seconds": 1.0},
            "/admin/deploy": {"checkpoint": checkpoint,
                              "shadow_requests": 0},
            "/admin/promote": {},
            "/admin/rollback": {},
        }
        for route in ROUTES:
            if route.method == "GET":
                status, _ = _get(server, route.path)
            else:
                status, _ = _post(server, route.path, bodies[route.path])
            assert status in (200, 409), (route.path, status)


class RecordingConnection:
    """Stands in for an accepted socket: replays ``raw`` as the request
    stream and records every ``sendall`` and ``setsockopt`` call."""

    def __init__(self, raw: bytes) -> None:
        self._incoming = io.BytesIO(raw)
        self.sends: list[bytes] = []
        self.options: list[tuple] = []

    def makefile(self, mode, buffering=-1):
        assert mode == "rb"
        return self._incoming

    def sendall(self, data) -> None:
        self.sends.append(bytes(data))

    def setsockopt(self, *option) -> None:
        self.options.append(option)


def _request(method: str, path: str, body: bytes = b"") -> bytes:
    head = f"{method} {path} HTTP/1.1\r\nHost: test\r\n"
    if body:
        head += f"Content-Length: {len(body)}\r\n"
    return head.encode() + b"\r\n" + body


def _split_response(data: bytes) -> tuple[bytes, dict, bytes]:
    head, _, body = data.partition(b"\r\n\r\n")
    status, *lines = head.decode().split("\r\n")
    headers = dict(line.split(": ", 1) for line in lines)
    return status.encode(), headers, body


class TestWire:
    def test_each_response_is_one_send(self, service, sql):
        """Status line, headers and body leave in a single write, for
        JSON answers, errors and the /metrics text alike."""
        service.predict({"sql": sql})
        raw = b"".join([
            _request("POST", "/v1/predict", json.dumps({"sql": sql}).encode()),
            _request("GET", "/metrics"),
            _request("GET", "/healthz"),
            _request("GET", "/no/such/path"),
            _request("POST", "/v1/predict", b"not json"),
            b"GET /healthz\r\n",  # HTTP/0.9: body only, then close
        ])
        connection = RecordingConnection(raw)
        handler = type("Handler", (_Handler,), {"service": service})
        handler(connection, ("127.0.0.1", 40000), None)
        assert len(connection.sends) == 6
        assert json.loads(connection.sends[5])["status"] == "ok"
        statuses, types = [], []
        for data in connection.sends[:5]:
            status, headers, body = _split_response(data)
            assert int(headers["Content-Length"]) == len(body)
            statuses.append(status.split()[1])
            types.append(headers["Content-Type"].split(";")[0])
        assert statuses == [b"200", b"200", b"200", b"404", b"400"]
        assert types == ["application/json", "text/plain",
                         "application/json", "application/json",
                         "application/json"]
        assert b"serve_predict_requests_total" in connection.sends[1]
        assert json.loads(_split_response(connection.sends[0])[2])["plans"]
        assert connection.options == [
            (socket.IPPROTO_TCP, socket.TCP_NODELAY, True)]

    def test_accepted_socket_has_nodelay(self, http_server):
        seen = []

        class Probe(http_server.RequestHandlerClass):
            def setup(self):
                super().setup()
                seen.append(self.connection.getsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY))

        http_server.RequestHandlerClass = Probe
        status, _ = _get(f"http://127.0.0.1:{http_server.port}", "/healthz")
        assert status == 200
        assert len(seen) == 1 and seen[0] != 0

    def test_keep_alive_predict_latency_clears_the_ack_stall(self, http_server,
                                                             sql):
        """20 predicts of one cached statement on one kept-alive
        connection. A response split across two writes waits out the
        client's delayed ACK (~40 ms per request on Linux loopback);
        one write keeps the median far below that."""
        connection = http.client.HTTPConnection(
            "127.0.0.1", http_server.port, timeout=30.0)
        body = json.dumps({"sql": sql}).encode()
        headers = {"Content-Type": "application/json"}
        try:
            latencies = []
            for i in range(21):
                start = time.perf_counter()
                connection.request("POST", "/v1/predict", body, headers)
                response = connection.getresponse()
                payload = json.loads(response.read())
                assert response.status == 200 and payload["plans"]
                if i:  # the first request fills the plan cache
                    latencies.append(time.perf_counter() - start)
        finally:
            connection.close()
        assert len(latencies) == 20
        assert float(np.median(latencies)) < 0.030, latencies


# -- the integration contract: concurrent clients during a hot swap --------
class TestConcurrentHotSwap:
    def test_zero_errors_and_no_torn_state_mid_swap(self, pipeline,
                                                    checkpoint, sql):
        """N client threads hammer predict while a deploy + shadow +
        promote runs; every response must succeed and carry exactly one
        of the two legitimate versions."""
        svc = PredictionService(
            ServingConfig(default_deadline_ms=5000.0),
            catalog=pipeline.catalog)
        v1 = svc.load_model(checkpoint)
        errors: list = []
        versions: set = set()
        stop = threading.Event()

        def client():
            while not stop.is_set():
                try:
                    body = svc.predict({"sql": sql})
                except Exception as exc:  # any error fails the contract
                    errors.append(exc)
                    return
                version = body["model_version"]
                if not version:
                    errors.append(AssertionError("torn/missing version"))
                    return
                versions.add(version)

        threads = [threading.Thread(target=client) for _ in range(6)]
        for t in threads:
            t.start()
        try:
            time.sleep(0.3)  # traffic flowing on the incumbent
            outcome = svc.deploy({"checkpoint": checkpoint,
                                  "shadow_requests": 2,
                                  "max_qerror": 100.0})
            v2 = outcome["version"]
            # Shadowing promotes from live traffic; wait for the swap.
            deadline = time.monotonic() + 30.0
            shard = svc.registry.shard("default")
            while (shard.current.version != v2
                   and time.monotonic() < deadline):
                time.sleep(0.05)
            assert shard.current.version == v2, "promotion never landed"
            time.sleep(0.3)  # traffic flowing on the new incumbent
        finally:
            stop.set()
            for t in threads:
                t.join(timeout=30.0)
            svc.close()

        assert errors == []
        assert versions <= {v1, v2}, f"unexpected provenance: {versions}"
        assert versions == {v1, v2}, (
            f"expected traffic on both sides of the swap, saw {versions}")
