"""Overload-resilience harness: deadlines, shedding, and the gate.

Drives the fully-armed guarded predictor (deadline + admission control
+ the learned-stage gate) through five phases:

1. **baseline** — closed-loop stream, no faults: everything served by
   the learned stage, gate closed.
2. **saturation** — ``CLIENTS`` concurrent closed loops (≈4× the
   admission capacity) against a model with an injected per-bucket
   hang: admission sheds the excess instantly, the deadline bounds what
   is admitted, and consecutive blown deadlines open the gate with
   cause ``deadline``.
3. **watchdog** — a fresh guard whose gate threshold exceeds its
   request count (so the gate never masks the learned stage) with the
   hang raised *past* the deadline: every learned attempt is abandoned
   by the bucket watchdog and the analytic chain answers inside the
   budget. No request may hang.
4. **recovery** — the fault is lifted under light load: after its
   cooldown the gate's half-open probe succeeds and the gate closes.
5. **shed fast-fail** — a ``reject``-mode guard behind a fully
   saturated admission controller: every request must fail in
   single-digit milliseconds, not queue.

Results go to ``BENCH_overload.json``. Gates (env-overridable):

* p99 of requests *accepted by the learned stage* under saturation must
  stay within ``deadline + REPRO_BENCH_OVERLOAD_GRACE_MS``;
* p99 of *all* requests (including degraded answers) must stay within
  the same bound — nothing hangs, nothing waits out the fault;
* shed requests must fail within ``REPRO_BENCH_OVERLOAD_SHED_GATE_MS``
  (default 5 ms);
* the gate must open with cause ``deadline`` during the saturation
  storm, and recovery must close it within
  ``REPRO_BENCH_OVERLOAD_RECOVERY_TIMEOUT_S``.

Scale knobs: ``REPRO_BENCH_OVERLOAD_CLIENTS`` (default 16),
``REPRO_BENCH_OVERLOAD_REQS`` (default 8 per client),
``REPRO_BENCH_OVERLOAD_DEADLINE_MS`` (default 50),
``REPRO_BENCH_OVERLOAD_STORM_SECONDS`` (default 2.5 — the saturation
storm keeps issuing requests at least this long).
"""

from __future__ import annotations

import os
import pathlib
import threading
import time

import numpy as np

from benchmarks.conftest import get_fixed_pipeline, publish
from benchmarks.runmeta import write_bench_json
from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core import CostPredictor
from repro.core.advisor import default_profile_grid
from repro.errors import Overloaded
from repro.eval import render_table
from repro.reliability import (
    CLOSED,
    OPEN,
    AdmissionConfig,
    AdmissionController,
    BreakerConfig,
    GuardedCostPredictor,
)
from tests.faults import FaultInjector

BENCH_JSON = pathlib.Path(__file__).parent.parent / "BENCH_overload.json"

CLIENTS = int(os.environ.get("REPRO_BENCH_OVERLOAD_CLIENTS", "16"))
REQS_PER_CLIENT = int(os.environ.get("REPRO_BENCH_OVERLOAD_REQS", "8"))
DEADLINE_MS = float(os.environ.get("REPRO_BENCH_OVERLOAD_DEADLINE_MS", "50"))
HANG_MS = float(os.environ.get("REPRO_BENCH_OVERLOAD_HANG_MS", "30"))
WATCHDOG_HANG_MS = float(
    os.environ.get("REPRO_BENCH_OVERLOAD_WATCHDOG_HANG_MS", "80"))
GRACE_MS = float(os.environ.get("REPRO_BENCH_OVERLOAD_GRACE_MS", "25"))
SHED_GATE_MS = float(os.environ.get("REPRO_BENCH_OVERLOAD_SHED_GATE_MS", "5"))
STORM_SECONDS = float(
    os.environ.get("REPRO_BENCH_OVERLOAD_STORM_SECONDS", "2.5"))
RECOVERY_TIMEOUT_S = float(
    os.environ.get("REPRO_BENCH_OVERLOAD_RECOVERY_TIMEOUT_S", "15"))

PAIRS_PER_REQUEST = 4
MAX_IN_FLIGHT = 4


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples)
    return {"p50": float(np.percentile(arr, 50)),
            "p95": float(np.percentile(arr, 95)),
            "p99": float(np.percentile(arr, 99)),
            "max": float(arr.max())}


def _storm(guard: GuardedCostPredictor, requests_per_client: int,
           make_request, min_duration: float = 0.0) -> dict:
    """``CLIENTS`` concurrent closed loops; per-request latency + source.

    Each client issues at least ``requests_per_client`` requests and
    keeps looping until ``min_duration`` wall seconds have elapsed —
    the saturation phase needs sustained pressure, not just a fixed
    request count.
    """
    samples: list[tuple[float, str, str | None]] = []
    lock = threading.Lock()
    errors: list[BaseException] = []
    start = time.perf_counter()

    def client(seed: int) -> None:
        rng = np.random.default_rng(seed)
        issued = 0
        try:
            while (issued < requests_per_client
                   or time.perf_counter() - start < min_duration):
                pairs = make_request(rng)
                t0 = time.perf_counter()
                explained = guard.predict_many_explained(pairs)
                dt = time.perf_counter() - t0
                issued += 1
                with lock:
                    samples.append((dt, explained.source, explained.reason))
        except BaseException as exc:  # pragma: no cover - gate below
            with lock:
                errors.append(exc)

    threads = [threading.Thread(target=client, args=(seed,))
               for seed in range(CLIENTS)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120.0)
    elapsed = time.perf_counter() - start
    hung = [t for t in threads if t.is_alive()]
    assert not hung, f"{len(hung)} client threads hung"
    assert not errors, errors[:3]

    latencies = [dt for dt, _, _ in samples]
    accepted = [dt for dt, source, reason in samples
                if source == "raal" and "shed" not in (reason or "")]
    by_reason = {
        "raal": sum(1 for _, s, _ in samples if s == "raal"),
        "shed": sum(1 for _, _, r in samples if r and "shed" in r),
        "deadline_exceeded": sum(1 for _, _, r in samples
                                 if r and "deadline_exceeded" in r),
        "gate_open": sum(1 for _, _, r in samples
                         if r and "circuit open" in r),
    }
    return {
        "requests": len(samples),
        "elapsed_seconds": elapsed,
        "all": _percentiles(latencies),
        "accepted_raal": _percentiles(accepted) if accepted else None,
        "accepted_count": len(accepted),
        "outcomes": by_reason,
    }


def test_overload_resilience():
    pipeline = get_fixed_pipeline("imdb")
    trained = pipeline.train_variant("RAAL", epochs=4)
    base = CostPredictor(trained.encoder, trained.trainer)
    model = trained.trainer.model
    gpsj = GPSJCostModel(pipeline.catalog)

    records = pipeline.split.test
    plans = list({id(r.plan): r.plan for r in records}.values())[:8]
    profiles = default_profile_grid()[:16]

    def make_request(rng):
        return [(plans[int(i)], profiles[int(j)])
                for i, j in zip(rng.integers(0, len(plans), PAIRS_PER_REQUEST),
                                rng.integers(0, len(profiles),
                                             PAIRS_PER_REQUEST))]

    injector = FaultInjector()
    results: dict = {"config": {
        "clients": CLIENTS, "requests_per_client": REQS_PER_CLIENT,
        "deadline_ms": DEADLINE_MS, "hang_ms": HANG_MS,
        "watchdog_hang_ms": WATCHDOG_HANG_MS, "grace_ms": GRACE_MS,
        "storm_seconds": STORM_SECONDS, "max_in_flight": MAX_IN_FLIGHT,
        "pairs_per_request": PAIRS_PER_REQUEST,
    }}
    telemetry = obs.Telemetry.create()
    with obs.attached(telemetry):
        # -- phase 1: baseline, no faults ------------------------------
        admission = AdmissionController(AdmissionConfig(
            max_in_flight=MAX_IN_FLIGHT, max_queue_depth=MAX_IN_FLIGHT,
            max_wait_seconds=0.010))
        guard = GuardedCostPredictor(
            base, gpsj=gpsj, admission=admission,
            default_deadline_ms=DEADLINE_MS)
        gate = guard.breakers["raal"]
        gate_history: list[dict] = []
        telemetry_hook = gate.on_transition

        def record_transition(old: str, new: str) -> None:
            gate_history.append({"old": old, "new": new,
                                 "cause": gate.cause})
            telemetry_hook(old, new)

        gate.on_transition = record_transition
        rng = np.random.default_rng(0)
        guard.predict_many(make_request(rng))  # warm caches + pools
        baseline_samples = []
        for _ in range(20):
            t0 = time.perf_counter()
            explained = guard.predict_many_explained(make_request(rng))
            baseline_samples.append(time.perf_counter() - t0)
            assert explained.source == "raal", explained
        results["baseline"] = {"all": _percentiles(baseline_samples),
                               "gate": gate.state}

        # -- phase 2: 4x saturation with a per-bucket hang -------------
        restore = injector.force_bucket_hang(model, HANG_MS / 1e3)
        try:
            results["saturation"] = _storm(guard, REQS_PER_CLIENT,
                                           make_request,
                                           min_duration=STORM_SECONDS)
        finally:
            restore()
        results["saturation"]["gate_history"] = list(gate_history)
        results["saturation"]["admission"] = admission.snapshot()

        # -- phase 3: the hang outlives the deadline (watchdog) --------
        # Fresh guard whose gate cannot trip within the phase: the
        # saturation gate is open by now and would route everything
        # around the model, leaving the watchdog untested.
        watchdog_requests = CLIENTS * max(REQS_PER_CLIENT // 2, 2)
        watchdog_guard = GuardedCostPredictor(
            base, gpsj=gpsj,
            breaker_config=BreakerConfig(
                failure_threshold=watchdog_requests + 1),
            admission=AdmissionController(AdmissionConfig(
                max_in_flight=MAX_IN_FLIGHT, max_queue_depth=MAX_IN_FLIGHT,
                max_wait_seconds=0.010)),
            default_deadline_ms=DEADLINE_MS)
        restore = injector.force_bucket_hang(model, WATCHDOG_HANG_MS / 1e3)
        try:
            results["watchdog"] = _storm(watchdog_guard,
                                         max(REQS_PER_CLIENT // 2, 2),
                                         make_request)
        finally:
            restore()

        # -- phase 4: fault lifted, the gate's probe closes it ---------
        recovery_start = time.perf_counter()
        recovered_at = None
        while time.perf_counter() - recovery_start < RECOVERY_TIMEOUT_S:
            guard.predict_many(make_request(rng))
            if gate.state == CLOSED:
                recovered_at = time.perf_counter() - recovery_start
                break
            # Open-gate answers return at once: pace the loop through
            # the cooldown instead of spinning on the analytic chain.
            time.sleep(0.01)
        results["recovery"] = {
            "gate": gate.state,
            "cause": gate.cause,
            "seconds_to_closed": recovered_at,
            "cooldown_seconds": gate.config.cooldown_seconds,
            "transitions_total": len(gate_history),
        }

        # -- phase 5: shed fast-fail -----------------------------------
        shed_admission = AdmissionController(AdmissionConfig(
            max_in_flight=1, max_queue_depth=0))
        reject_guard = GuardedCostPredictor(
            base, gpsj=gpsj, admission=shed_admission, shed_mode="reject")
        reject_guard.predict_many(make_request(rng))  # warm encode cache
        release = injector.force_queue_saturation(shed_admission)
        shed_samples = []
        try:
            for _ in range(20):
                pairs = make_request(rng)
                t0 = time.perf_counter()
                try:
                    reject_guard.predict_many(pairs)
                    raise AssertionError("saturated guard must shed")
                except Overloaded:
                    shed_samples.append(time.perf_counter() - t0)
        finally:
            release()
        results["shed_fastfail"] = _percentiles(shed_samples)

        results["counters"] = {
            name: telemetry.registry.get(name).value
            for name in ("predict.shed_total",
                         "predict.deadline_exceeded_total",
                         "guard.raal.deadline_exceeded_total",
                         "guard.raal.breaker_transitions_total",
                         "gate.deadline_trips_total")
            if telemetry.registry.get(name) is not None
        }

    write_bench_json(BENCH_JSON, results)

    sat = results["saturation"]
    trips = [e for e in sat["gate_history"] if e["new"] == OPEN]
    watchdog = results["watchdog"]
    rows = [
        ["baseline", f"{results['baseline']['all']['p99'] * 1e3:.1f}", "-",
         "-", "-", results["baseline"]["gate"]],
        ["saturation", f"{sat['all']['p99'] * 1e3:.1f}",
         f"{sat['all']['max'] * 1e3:.1f}",
         str(sat["outcomes"]["shed"]),
         str(sat["outcomes"]["deadline_exceeded"]),
         f"open ({trips[0]['cause']})" if trips else "-"],
        ["watchdog", f"{watchdog['all']['p99'] * 1e3:.1f}",
         f"{watchdog['all']['max'] * 1e3:.1f}",
         str(watchdog["outcomes"]["shed"]),
         str(watchdog["outcomes"]["deadline_exceeded"]), "-"],
        ["recovery", "-", "-", "-", "-", results["recovery"]["gate"]],
        ["shed fast-fail", f"{results['shed_fastfail']['p99'] * 1e3:.2f}",
         "-", str(len(shed_samples)), "-", "-"],
    ]
    publish("overload_resilience", render_table(
        f"Overload resilience ({CLIENTS} clients, {DEADLINE_MS:.0f}ms "
        f"deadline, {HANG_MS:.0f}ms hang; ms)",
        ["phase", "p99", "max", "shed", "deadline", "gate"], rows))

    # -- gates ----------------------------------------------------------
    bound = (DEADLINE_MS + GRACE_MS) / 1e3
    if sat["accepted_raal"] is not None:
        assert sat["accepted_raal"]["p99"] <= bound, sat["accepted_raal"]
    assert sat["all"]["p99"] <= bound, sat["all"]
    assert results["watchdog"]["all"]["p99"] <= bound, results["watchdog"]
    assert results["watchdog"]["outcomes"]["deadline_exceeded"] > 0, \
        results["watchdog"]
    assert any(e["cause"] == "deadline" for e in trips), sat["gate_history"]
    assert results["recovery"]["gate"] == CLOSED, results["recovery"]
    assert results["shed_fastfail"]["p99"] <= SHED_GATE_MS / 1e3, \
        results["shed_fastfail"]
