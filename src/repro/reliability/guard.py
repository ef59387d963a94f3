"""Guarded cost prediction: the learned model may never sink a query.

A learned cost model sitting inside the optimizer loop (plan selection,
resource recommendation) must degrade, not crash: a corrupt checkpoint,
a poisoned vocabulary, an oversized plan, or a NaN forward should fall
back to the analytic GPSJ estimate — and if even that fails, to a
static heuristic that cannot fail. :class:`GuardedCostPredictor` wraps
a :class:`~repro.core.predictor.CostPredictor` with exactly that chain:

    RAAL (learned) → GPSJ (analytic) → static heuristic

Every stage is protected by a circuit breaker (skip a stage outright
after K consecutive failures, re-probe after a cooldown) and the RAAL
stage additionally retries transient faults with bounded backoff.
Every answer carries provenance: which stage produced it and, when the
chain degraded, why.

On top of the fault chain sits the overload-resilience layer (all
optional, all default-off):

* **Deadlines** — every predict call accepts a
  :class:`~repro.reliability.deadline.Deadline` (or synthesizes one
  from ``default_deadline_ms``); the learned stage abandons work past
  the budget and the chain serves the analytic answer instead. A blown
  deadline is *load*, not model failure — it never trips the breaker
  and is never retried.
* **Admission control** — an :class:`~repro.reliability.admission.
  AdmissionController` bounds learned-model concurrency; shed requests
  either fall through to the analytic chain (``shed_mode="fallback"``,
  default) or raise :class:`~repro.errors.Overloaded` within
  milliseconds (``shed_mode="reject"``).
* **Degradation ladder** — a :class:`~repro.reliability.ladder.
  DegradationLadder` fed with learned-stage latencies picks the
  serving precision tier (f64 → f32 → int8 → analytic-only) and is
  pinned to its bottom rung while the RAAL breaker is open. The ladder
  assumes the configured base tier is ``f64``.
* **Accuracy canary** — while degraded, an
  :class:`~repro.reliability.canary.AccuracyCanary` shadow-scores a
  seeded ~1% sample on the f64 path and trips the ladder back up when
  relative drift breaches the budget.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.cluster.resources import ResourceProfile
from repro.core.predictor import CostPredictor
from repro.encoding.plan_encoder import plan_fingerprint
from repro.errors import DeadlineExceeded, Overloaded, PredictionError
from repro.obs.audit import AuditTrail
from repro.obs.quality import DRIFT, AccuracyTracker
from repro.obs.slo import SLOTracker
from repro.plan.physical import PhysicalPlan
from repro.reliability.admission import AdmissionController
from repro.reliability.canary import AccuracyCanary
from repro.reliability.circuit import BreakerConfig, CircuitBreaker
from repro.reliability.deadline import Deadline
from repro.reliability.ladder import DegradationLadder
from repro.reliability.retry import RetryPolicy, retry_call

__all__ = [
    "GuardedPrediction",
    "ExplainedPredictions",
    "GuardedCostPredictor",
    "static_heuristic_cost",
    "DEFAULT_CHAIN",
    "SHED_MODES",
]

#: How admission-control sheds surface: degrade to the analytic chain,
#: or reject the request with :class:`~repro.errors.Overloaded`.
SHED_MODES = ("fallback", "reject")

DEFAULT_CHAIN = ("raal", "gpsj", "heuristic")

#: Fallback-of-last-resort cost when even the heuristic inputs are junk.
_FLOOR_SECONDS = 1.0


def static_heuristic_cost(plan: PhysicalPlan, resources: ResourceProfile) -> float:
    """Total-function cost estimate used when every model is down.

    A crude linear model — per-operator overhead plus scan volume over
    aggregate disk bandwidth — clamped to a positive finite value. It
    exists to keep plan selection *ranked sanely* (bigger plans cost
    more), not to be accurate.
    """
    try:
        nodes = plan.nodes()
        total_bytes = 0.0
        for node in nodes:
            est = float(node.est_bytes)
            if np.isfinite(est) and est > 0:
                total_bytes += est
        slots = max(int(resources.task_slots), 1)
        disk = float(resources.disk_throughput_mbps)
        if not np.isfinite(disk) or disk <= 0:
            disk = 100.0
        seconds = 0.5 * len(nodes) + total_bytes * 6000.0 / (disk * 1e6 * slots)
        if not np.isfinite(seconds) or seconds <= 0:
            return _FLOOR_SECONDS
        return float(seconds)
    except Exception:
        return _FLOOR_SECONDS


@dataclass(frozen=True)
class GuardedPrediction:
    """One guarded cost estimate with provenance."""

    seconds: float
    source: str
    reason: str | None = None
    #: Audit-trail handle for closing the feedback loop (present when
    #: an :class:`~repro.obs.audit.AuditTrail` is configured).
    request_id: str | None = None

    @property
    def degraded(self) -> bool:
        """Whether the answer came from a fallback stage."""
        return self.source != DEFAULT_CHAIN[0]


@dataclass(frozen=True)
class ExplainedPredictions:
    """A batch of guarded cost estimates with shared provenance.

    All costs in one call come from the same stage — the chain degrades
    per *request*, not per sample, so a selector never ranks plans
    scored by different models against each other.
    """

    costs: np.ndarray
    source: str
    reason: str | None = None
    #: Audit-trail handles for closing the feedback loop, one per member
    #: request (present when an :class:`~repro.obs.audit.AuditTrail` is set).
    request_ids: tuple[str, ...] = ()

    @property
    def request_id(self) -> str | None:
        """The first member request's audit handle, if any."""
        return self.request_ids[0] if self.request_ids else None


@dataclass
class _StageStats:
    """Per-stage call accounting (observability for tests and doctor)."""

    served: int = 0
    failures: int = 0
    skipped_open: int = 0
    rejected_input: int = 0
    # Overload-resilience accounting (only the learned stage uses these).
    deadline_exceeded: int = 0
    shed: int = 0
    degraded_precision: int = 0
    ladder_fallback: int = 0


class GuardedCostPredictor:
    """Fallback-chain wrapper around a trained :class:`CostPredictor`.

    Duck-type compatible with :class:`CostPredictor` (``predict``,
    ``predict_many``, ``predict_grid``), so :class:`PlanSelector` and
    :class:`ResourceAdvisor` accept it unchanged — and when they detect
    the ``*_explained`` variants they surface provenance in their
    results.

    Parameters
    ----------
    predictor:
        The trained learned-model predictor (the "raal" stage).
    gpsj:
        Analytic fallback model; when ``None`` the "gpsj" stage reports
        itself unavailable and the chain skips to the heuristic.
    chain:
        Stage order; a subset/reordering of ``("raal", "gpsj",
        "heuristic")``.
    breaker_config:
        Trip threshold / cooldown shared by each stage's breaker.
    retry_policy:
        Bounded-backoff retry applied to the RAAL stage only (the
        analytic stages are deterministic — retrying them is pointless).
        Blown deadlines and shed requests are never retried.
    admission:
        Optional :class:`AdmissionController` bounding learned-model
        concurrency; sheds surface per ``shed_mode``.
    ladder:
        Optional :class:`DegradationLadder` choosing the serving
        precision tier from rolling learned-stage latency; coupled to
        the RAAL breaker (open ⇒ ladder pinned to FALLBACK).
    canary:
        Optional :class:`AccuracyCanary` shadow-scoring degraded-tier
        answers against the f64 path; a drift breach trips the ladder
        back up.
    quality:
        Optional :class:`~repro.obs.quality.AccuracyTracker` fed
        (prediction, observed runtime) pairs via
        :meth:`record_observation`; its drift detector — when drifting
        — trips the ladder to FALLBACK (the learned model itself is
        wrong, so no precision tier helps).
    audit:
        Optional :class:`~repro.obs.audit.AuditTrail`; every served
        request gets audit records (one per pair up to the trail's
        per-request cap) and a ``request_id`` in its result for later
        ground-truth attachment.
    slo:
        Optional :class:`~repro.obs.slo.SLOTracker`; serving latency is
        recorded to an SLO named ``latency`` and feedback q-errors to
        one named ``qerror`` (either optional — absent names are
        skipped).
    workload:
        Static workload-class label stamped onto audit records and
        per-workload quality statistics.
    default_deadline_ms:
        When set, every predict call without an explicit deadline gets
        a fresh one with this budget.
    shed_mode:
        ``"fallback"`` (default) serves shed requests from the analytic
        chain; ``"reject"`` raises :class:`~repro.errors.Overloaded`.
    clock / sleep:
        Injectable time sources for deterministic tests.
    """

    def __init__(
        self,
        predictor: CostPredictor,
        gpsj: GPSJCostModel | None = None,
        chain: tuple[str, ...] = DEFAULT_CHAIN,
        breaker_config: BreakerConfig | None = None,
        retry_policy: RetryPolicy | None = None,
        admission: AdmissionController | None = None,
        ladder: DegradationLadder | None = None,
        canary: AccuracyCanary | None = None,
        quality: AccuracyTracker | None = None,
        audit: AuditTrail | None = None,
        slo: SLOTracker | None = None,
        workload: str | None = None,
        default_deadline_ms: float | None = None,
        shed_mode: str = "fallback",
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        unknown = set(chain) - set(DEFAULT_CHAIN)
        if unknown:
            raise PredictionError(f"unknown fallback stages: {sorted(unknown)}")
        if not chain:
            raise PredictionError("fallback chain cannot be empty")
        if shed_mode not in SHED_MODES:
            raise PredictionError(
                f"unknown shed_mode {shed_mode!r}; expected one of {SHED_MODES}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise PredictionError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}")
        self.predictor = predictor
        self.gpsj = gpsj
        self.chain = tuple(chain)
        self.retry_policy = retry_policy or RetryPolicy(attempts=2, base_delay=0.0)
        self.admission = admission
        self.ladder = ladder
        self.canary = canary
        self.quality = quality
        self.audit = audit
        self.slo = slo
        self.workload = workload
        self.default_deadline_ms = default_deadline_ms
        self.shed_mode = shed_mode
        self._clock = clock
        self._sleep = sleep
        self._tier_predictors: dict[str, CostPredictor] = {}
        self.breakers = {
            stage: CircuitBreaker(config=breaker_config, clock=clock,
                                  on_transition=self._breaker_listener(stage))
            for stage in self.chain
        }
        self.stats = {stage: _StageStats() for stage in self.chain}

    def _breaker_listener(self, stage: str) -> Callable[[str, str], None]:
        """Telemetry hook for one stage's breaker state changes.

        The RAAL stage's transitions additionally drive the degradation
        ladder: an open breaker pins it to FALLBACK, the half-open
        probe releases it.
        """
        def _on_transition(old: str, new: str) -> None:
            obs.inc(f"guard.{stage}.breaker_transitions_total",
                    help="Circuit breaker state changes")
            obs.emit_event("guard", "breaker_transition",
                           stage=stage, old=old, new=new)
            if stage == "raal" and self.ladder is not None:
                self.ladder.on_breaker_transition(old, new)
        return _on_transition

    # -- CostPredictor-compatible surface ---------------------------------
    @property
    def encoder(self):
        """The wrapped predictor's encoder (CostPredictor compatibility)."""
        return self.predictor.encoder

    @property
    def trainer(self):
        """The wrapped predictor's trainer (CostPredictor compatibility)."""
        return self.predictor.trainer

    def close(self) -> None:
        """Release worker pools held by the base and tier predictors."""
        self.predictor.close()
        for predictor in self._tier_predictors.values():
            predictor.close()

    def predict(self, plan: PhysicalPlan, resources: ResourceProfile,
                deadline: Deadline | None = None) -> float:
        """Guarded cost (seconds) of one (plan, resources) pair."""
        return self.predict_explained(plan, resources, deadline=deadline).seconds

    def predict_explained(self, plan: PhysicalPlan,
                          resources: ResourceProfile,
                          deadline: Deadline | None = None) -> GuardedPrediction:
        """Guarded cost of one pair, with provenance."""
        explained = self.predict_many_explained([(plan, resources)],
                                                deadline=deadline)
        return GuardedPrediction(
            seconds=float(explained.costs[0]),
            source=explained.source,
            reason=explained.reason,
            request_id=explained.request_id,
        )

    def predict_many(self, pairs: list[tuple[PhysicalPlan, ResourceProfile]],
                     deadline: Deadline | None = None) -> np.ndarray:
        """Guarded cost vector (drop-in for ``CostPredictor.predict_many``)."""
        return self.predict_many_explained(pairs, deadline=deadline).costs

    def predict_grid(self, plans: list[PhysicalPlan],
                     profiles: list[ResourceProfile],
                     deadline: Deadline | None = None) -> np.ndarray:
        """Guarded cost matrix (drop-in for ``CostPredictor.predict_grid``)."""
        return self.predict_grid_explained(plans, profiles,
                                           deadline=deadline).costs

    def predict_grid_explained(self, plans: list[PhysicalPlan],
                               profiles: list[ResourceProfile],
                               deadline: Deadline | None = None,
                               ) -> ExplainedPredictions:
        """Guarded ``(len(profiles), len(plans))`` grid with provenance."""
        pairs = [(plan, profile) for profile in profiles for plan in plans]
        explained = self.predict_many_explained(pairs, deadline=deadline)
        return ExplainedPredictions(
            costs=explained.costs.reshape(len(profiles), len(plans)),
            source=explained.source,
            reason=explained.reason,
            request_ids=explained.request_ids,
        )

    def degradation_counts(self) -> dict[str, int]:
        """Cumulative fallback accounting across the predictor's lifetime.

        Mirrors the ``guard.*`` registry counters for callers that hold
        the predictor but not the telemetry bundle (``repro doctor``,
        tests). ``degraded`` counts answers served by any stage other
        than the chain's first.
        """
        served = {stage: s.served for stage, s in self.stats.items()}
        total = sum(served.values())
        counts = {"requests_served": total,
                  "degraded": total - served.get(self.chain[0], 0)}
        for stage, stat in self.stats.items():
            counts[f"{stage}.served"] = stat.served
            counts[f"{stage}.failures"] = stat.failures
            counts[f"{stage}.skipped_open"] = stat.skipped_open
            counts[f"{stage}.rejected_input"] = stat.rejected_input
        raal = self.stats.get("raal")
        if raal is not None:
            counts["deadline_exceeded"] = raal.deadline_exceeded
            counts["shed"] = raal.shed
            counts["degraded_precision"] = raal.degraded_precision
            counts["ladder_fallback"] = raal.ladder_fallback
        return counts

    def health_state(self) -> dict[str, object]:
        """Live overload-resilience posture (``repro doctor`` and tests).

        Summarizes the ladder rung, breaker states, and admission /
        canary snapshots in one JSON-friendly dict.
        """
        state: dict[str, object] = {
            "ladder": self.ladder.state if self.ladder is not None else "healthy",
            "precision": (self.ladder.precision() if self.ladder is not None
                          else self.predictor.config.precision),
            "breakers": {stage: breaker.state
                         for stage, breaker in self.breakers.items()},
            "shed_mode": self.shed_mode,
            "default_deadline_ms": self.default_deadline_ms,
        }
        if self.admission is not None:
            state["admission"] = self.admission.snapshot()
        if self.canary is not None:
            state["canary"] = self.canary.snapshot()
        if self.quality is not None:
            state["quality"] = self.quality.snapshot()
        if self.audit is not None:
            state["audit"] = self.audit.snapshot()
        if self.slo is not None:
            state["slo"] = self.slo.snapshot()
        return state

    # -- the chain ---------------------------------------------------------
    def predict_many_explained(
        self, pairs: list[tuple[PhysicalPlan, ResourceProfile]],
        deadline: Deadline | None = None,
        members: list[int] | None = None,
    ) -> ExplainedPredictions:
        """Run the fallback chain for a batch of (plan, resources) pairs.

        ``members`` are the pair counts of the requests fused into
        ``pairs`` (default: one). Each gets its own audit request id,
        indexes from 0 and the trail's per-request cap.

        Tries each stage in order. A stage is skipped without running
        when its breaker is open; input-validation rejections (bad
        *request*, e.g. an oversized plan) skip the RAAL stage without
        counting against its breaker, since they say nothing about the
        model's health. Blown deadlines and admission sheds likewise
        degrade without tripping the breaker — they are load signals,
        not model failures. Raises :class:`PredictionError` only when
        every stage fails (or :class:`~repro.errors.Overloaded` when a
        shed occurs under ``shed_mode="reject"``).
        """
        if not pairs:
            return ExplainedPredictions(costs=np.zeros(0), source=self.chain[0])
        if deadline is None and self.default_deadline_ms is not None:
            deadline = Deadline.from_ms(self.default_deadline_ms,
                                        clock=self._clock)
        started = self._clock()
        with obs.span("guarded_predict", pairs=len(pairs)) as sp:
            obs.inc("guard.requests_total", help="Guarded prediction requests")
            reasons: list[str] = []
            for stage in self.chain:
                breaker = self.breakers[stage]
                stats = self.stats[stage]
                tier: str | None = None
                if stage == "raal":
                    problem = self._validate_inputs(pairs)
                    if problem is not None:
                        stats.rejected_input += 1
                        obs.inc("guard.raal.rejected_input_total",
                                help="Requests the learned model refused")
                        obs.emit_event("guard", "rejected_input",
                                       stage="raal", reason=problem)
                        reasons.append(f"raal: {problem}")
                        continue
                    if self.ladder is not None:
                        tier = self.ladder.precision()
                        if tier is None:
                            stats.ladder_fallback += 1
                            obs.inc("guard.raal.ladder_fallback_total",
                                    help="Requests routed past the learned "
                                         "model while the ladder sat in "
                                         "FALLBACK")
                            reasons.append("raal: ladder in fallback")
                            continue
                        if tier in ("f64", self.predictor.config.precision):
                            tier = None  # healthy rung serves the base tier
                if not breaker.allow():
                    stats.skipped_open += 1
                    obs.inc(f"guard.{stage}.skipped_open_total",
                            help="Stage skipped while breaker open")
                    reasons.append(f"{stage}: circuit open")
                    continue
                try:
                    if stage == "raal":
                        costs = self._guarded_raal(pairs, deadline=deadline,
                                                   tier=tier)
                    else:
                        costs = self._run_stage(stage, pairs)
                except Overloaded as exc:
                    stats.shed += 1
                    obs.emit_event("guard", "shed", stage="raal",
                                   error=str(exc))
                    reasons.append(f"raal: shed — {exc}")
                    if self.shed_mode == "reject":
                        raise
                    continue
                except DeadlineExceeded as exc:
                    stats.deadline_exceeded += 1
                    obs.inc("guard.raal.deadline_exceeded_total",
                            help="Learned-stage attempts abandoned past "
                                 "their deadline")
                    obs.emit_event("guard", "deadline_exceeded",
                                   stage="raal", error=str(exc))
                    reasons.append(f"raal: deadline_exceeded — {exc}")
                    continue
                except Exception as exc:  # reliability boundary: degrade, never crash
                    breaker.record_failure()
                    stats.failures += 1
                    obs.inc(f"guard.{stage}.failures_total",
                            help="Stage failures")
                    obs.emit_event("guard", "stage_failure",
                                   stage=stage, error=str(exc))
                    reasons.append(f"{stage}: {exc}")
                    continue
                breaker.record_success()
                stats.served += 1
                obs.inc(f"guard.{stage}.served_total",
                        help="Requests answered by this stage")
                if stage == "raal" and tier is not None:
                    stats.degraded_precision += 1
                    obs.inc("guard.raal.degraded_precision_total",
                            help="Learned answers served at a ladder-"
                                 "degraded precision tier")
                    reasons.append(f"raal: degraded_precision:{tier}")
                degraded = stage != self.chain[0]
                sp.annotate(source=stage, degraded=degraded)
                if degraded:
                    obs.inc("guard.degraded_total",
                            help="Requests served by a fallback stage")
                    obs.emit_event("guard", "fallback", source=stage,
                                   reason="; ".join(reasons) or None)
                reason = "; ".join(reasons) or None
                request_ids = self._record_served(
                    pairs, members or [len(pairs)], costs, stage=stage,
                    tier=tier, reason=reason, latency=self._clock() - started)
                return ExplainedPredictions(
                    costs=costs, source=stage, reason=reason,
                    request_ids=request_ids,
                )
            obs.inc("guard.exhausted_total",
                    help="Requests for which every stage failed")
            obs.emit_event("guard", "chain_exhausted",
                           reason="; ".join(reasons))
            raise PredictionError(
                "all fallback stages failed: " + "; ".join(reasons))

    # -- the feedback loop -------------------------------------------------
    def _record_served(self, pairs, members: list[int], costs: np.ndarray,
                       stage: str, tier: str | None, reason: str | None,
                       latency: float) -> tuple[str, ...]:
        """Audit the served answers, one request id per member, and feed
        the latency SLO (best effort)."""
        obs.observe("guard.latency_seconds", latency,
                    help="End-to-end guarded request latency")
        if self.slo is not None and "latency" in self.slo.names():
            self.slo.record("latency", latency)
        if self.audit is None:
            return ()
        if stage == "raal":
            served_tier = tier or self.predictor.config.precision
        else:
            served_tier = None
        request_ids = []
        start = 0
        for size in members:
            request_id = self.audit.next_request_id()
            request_ids.append(request_id)
            for i, (plan, resources) in enumerate(pairs[start:start + size]):
                try:
                    fingerprint = plan_fingerprint(plan)
                    nodes = int(plan.num_nodes)
                except Exception:
                    fingerprint, nodes = None, None
                record = self.audit.record(
                    request_id, index=i,
                    plan_fingerprint=fingerprint, plan_nodes=nodes,
                    resources={
                        "executors": resources.executors,
                        "executor_cores": resources.executor_cores,
                        "executor_memory_gb": resources.executor_memory_gb,
                    },
                    tier=served_tier, source=stage, latency_seconds=latency,
                    prediction_seconds=float(costs[start + i]),
                    workload=self.workload, reason=reason)
                if record is None:
                    break  # per-request cap reached; the trail counted it
            start += size
        return tuple(request_ids)

    def record_observation(self, request_id: str, observed_seconds: float,
                           index: int = 0) -> float | None:
        """Close the loop: attach an observed runtime to a served answer.

        Looks the prediction up in the audit trail by ``(request_id,
        index)``, records the ground truth there, feeds the q-error to
        the quality tracker (learned-stage answers only — the tracker
        measures the model, not the analytic fallbacks) and the
        ``qerror`` SLO (every served answer — users experience fallback
        inaccuracy too), and couples a drifting detector into the
        ladder. Returns the sample's q-error, or ``None`` when the
        record is unknown/evicted or ground truth is unusable.
        """
        if self.audit is None:
            raise PredictionError(
                "record_observation requires an AuditTrail (pass audit=... "
                "to GuardedCostPredictor)")
        record = self.audit.observe(request_id, observed_seconds, index=index)
        if record is None or record.q_error is None:
            return None
        if self.quality is not None and record.source == "raal":
            self.quality.record(record.prediction_seconds, observed_seconds,
                                tier=record.tier, workload=record.workload)
            self._couple_drift()
        if self.slo is not None and "qerror" in self.slo.names():
            self.slo.record("qerror", record.q_error)
        return record.q_error

    def _couple_drift(self) -> None:
        """Drifting accuracy drops the ladder to its analytic fallback.

        Called after every quality-tracked feedback sample: while the
        detector reports drift, the learned model's answers are not
        trusted at *any* precision tier, so the ladder is (re-)tripped
        to FALLBACK. The ladder's dwell probe still climbs back
        periodically; if the feedback stream keeps drifting the next
        sample trips it again, and once the detector recovers the probe
        sticks.
        """
        if self.quality is None or self.ladder is None:
            return
        detector = self.quality.drift
        if detector is not None and detector.state == DRIFT:
            self.ladder.trip_drift(detector.last_reason or "accuracy drift")

    # -- stages ------------------------------------------------------------
    def _run_stage(self, stage: str, pairs) -> np.ndarray:
        if stage == "gpsj":
            return self._gpsj_costs(pairs)
        return self._heuristic_costs(pairs)

    def _guarded_raal(self, pairs, deadline: Deadline | None,
                      tier: str | None) -> np.ndarray:
        """Admission-gated, ladder-tiered, retried learned prediction.

        Learned-stage latency feeds the ladder on success *and* on a
        blown deadline — overruns are exactly the signal that should
        push it down. Generic failures do not feed it (the breaker owns
        those).
        """
        def _on_retry(retry_index: int, exc: BaseException) -> None:
            obs.inc("guard.raal.retry_attempts_total",
                    help="Transient-fault retries of the learned model")
            obs.emit_event("guard", "retry", stage="raal",
                           attempt=retry_index + 1, error=str(exc))

        admit = (self.admission.admit(deadline)
                 if self.admission is not None else nullcontext())
        with admit:
            start = self._clock()
            try:
                costs = retry_call(
                    lambda: self._raal_costs(pairs, deadline=deadline,
                                             tier=tier),
                    policy=self.retry_policy, sleep=self._sleep,
                    give_up_on=(DeadlineExceeded, Overloaded),
                    on_retry=_on_retry)
            except DeadlineExceeded:
                if self.ladder is not None:
                    self.ladder.record(self._clock() - start)
                raise
            if self.ladder is not None:
                self.ladder.record(self._clock() - start)
            return costs

    def _tier_predictor(self, tier: str | None) -> CostPredictor:
        """The serving predictor for a ladder tier (base config when None)."""
        if tier is None or tier == self.predictor.config.precision:
            return self.predictor
        cached = self._tier_predictors.get(tier)
        if cached is None:
            cached = self.predictor.configured(
                replace(self.predictor.config, precision=tier))
            self._tier_predictors[tier] = cached
        return cached

    def _raal_costs(self, pairs, deadline: Deadline | None = None,
                    tier: str | None = None) -> np.ndarray:
        encoded = self.predictor.encoder.encode_many(pairs)
        # Encoded pairs share their plan-side and resource arrays (one
        # per distinct plan and profile): check each array once.
        finite: dict[int, bool] = {}

        def all_finite(array: np.ndarray) -> bool:
            verdict = finite.get(id(array))
            if verdict is None:
                verdict = finite[id(array)] = bool(np.all(np.isfinite(array)))
            return verdict

        bad = [i for i, e in enumerate(encoded)
               if not (all_finite(e.node_features)
                       and all_finite(e.resources)
                       and all_finite(e.extras))]
        if bad:
            raise PredictionError(
                f"non-finite encoded features for {len(bad)} of "
                f"{len(encoded)} samples (first at index {bad[0]})")
        if deadline is not None:
            deadline.check("after encode")
        # Route through the (possibly ladder-degraded) configured engine
        # so precision tier and bucket threading apply under the guard.
        serving = self._tier_predictor(tier)
        costs, saturated = serving.predict_encoded(encoded, deadline=deadline)
        if not np.all(np.isfinite(costs)):
            raise PredictionError("model produced non-finite costs")
        if saturated:
            raise PredictionError(
                f"model output saturated the log-cost clamp for "
                f"{saturated} of {len(costs)} samples")
        if (tier is not None and self.canary is not None
                and self.canary.should_sample()):
            self._shadow_canary(encoded, costs, tier)
        return costs

    def _shadow_canary(self, encoded, costs: np.ndarray, tier: str) -> None:
        """Shadow-score a degraded answer on the f64 path (best effort).

        Runs without a deadline — the shadow is sampled bookkeeping, not
        part of the serving path — and swallows its own failures.
        """
        try:
            reference, _ = self._tier_predictor("f64").predict_encoded(
                encoded)
        except Exception as exc:
            obs.inc("canary.errors_total",
                    help="Canary shadow predictions that failed")
            obs.emit_event("canary", "shadow_error", error=str(exc))
            return
        tripped = self.canary.observe(np.asarray(costs),
                                      np.asarray(reference), tier)
        if tripped and self.ladder is not None:
            self.ladder.trip_accuracy(f"canary drift on tier {tier}")

    def _gpsj_costs(self, pairs) -> np.ndarray:
        if self.gpsj is None:
            raise PredictionError("no GPSJ model configured")
        costs = np.array([self.gpsj.estimate(plan, resources)
                          for plan, resources in pairs])
        if not np.all(np.isfinite(costs)) or np.any(costs < 0):
            raise PredictionError("GPSJ produced non-finite or negative costs")
        return costs

    def _heuristic_costs(self, pairs) -> np.ndarray:
        return np.array([static_heuristic_cost(plan, resources)
                         for plan, resources in pairs])

    # -- input validation --------------------------------------------------
    def _validate_inputs(self, pairs) -> str | None:
        """Reason string when the request cannot go to the learned model."""
        structure = self.predictor.encoder.structure
        max_nodes = structure.max_nodes if structure is not None else None
        for i, (plan, resources) in enumerate(pairs):
            if max_nodes is not None and plan.num_nodes > max_nodes:
                return (f"plan {i} has {plan.num_nodes} nodes, exceeding "
                        f"the encoder's max_nodes={max_nodes}")
            features = resources.as_features()
            if not np.all(np.isfinite(features)):
                return f"resource profile {i} has non-finite features"
            if resources.executor_memory_gb <= 0 or resources.task_slots < 1:
                return f"resource profile {i} has non-positive resources"
            if not plan.estimates_finite():
                return f"plan {i} carries non-finite cardinality estimates"
        return None
