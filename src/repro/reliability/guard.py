"""Guarded cost prediction: the learned model may never sink a query.

A learned cost model sitting inside the optimizer loop (plan selection,
resource recommendation) must degrade, not crash: a corrupt checkpoint,
a poisoned vocabulary, an oversized plan, or a NaN forward should fall
back to the analytic GPSJ estimate — and if even that fails, to a
static heuristic that cannot fail. :class:`GuardedCostPredictor` wraps
a :class:`~repro.core.predictor.CostPredictor` with exactly that chain:

    RAAL (learned) → GPSJ (analytic) → static heuristic

The learned and analytic stages each have a circuit breaker (skip the
stage outright after K consecutive strikes, re-probe after a
cooldown). The learned stage is a deterministic in-process encode and
forward, so re-running a failed call would only fail again: a failure
falls through at once. Every answer carries provenance: which stage
produced it and, when the chain degraded, why.

The RAAL breaker is the one **learned-stage gate**: closed serves the
model, open serves the analytic chain, half-open lets one probe
through. It opens with a typed cause (``breakers["raal"].cause``):

* ``failures`` — K consecutive encode/forward failures;
* ``deadline`` — K consecutive learned-stage attempts abandoned past
  a :class:`~repro.reliability.deadline.Deadline` whose budget is at
  least the server's ``default_deadline_ms``. A deadline strike is the
  gate's only latency signal, so a guard with no default deadline
  never trips on latency. A tighter per-request deadline falls back
  for that request alone: one client's tight budget must not shut the
  model off for every client;
* ``drift`` — the quality tracker's drift detector reports drift on
  feedback (:meth:`GuardedCostPredictor.record_observation`).

An optional :class:`~repro.reliability.admission.AdmissionController`
bounds learned-model concurrency; shed requests either fall through to
the analytic chain (``shed_mode="fallback"``, default) or raise
:class:`~repro.errors.Overloaded` within milliseconds
(``shed_mode="reject"``). Sheds and input rejections are not strikes:
they say nothing about the model.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass
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
from repro.reliability.circuit import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.reliability.deadline import Deadline

__all__ = [
    "GuardedPrediction",
    "ExplainedPredictions",
    "GuardedCostPredictor",
    "static_heuristic_cost",
    "DEFAULT_CHAIN",
    "GATE_STATES",
    "SHED_MODES",
]

#: How admission-control sheds surface: degrade to the analytic chain,
#: or reject the request with :class:`~repro.errors.Overloaded`.
SHED_MODES = ("fallback", "reject")

#: The fallback order: learned model, analytic model, static heuristic.
DEFAULT_CHAIN = ("raal", "gpsj", "heuristic")

#: Learned-stage gate states, in ``health.state`` gauge order.
GATE_STATES = (CLOSED, HALF_OPEN, OPEN)

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


class GuardedCostPredictor:
    """Fallback-chain wrapper around a trained :class:`CostPredictor`.

    Duck-type compatible with :class:`CostPredictor` (``predict``,
    ``predict_many``, ``predict_grid``), so :class:`PlanSelector` and
    :class:`ResourceAdvisor` accept it unchanged — and when they detect
    the ``*_explained`` variants they surface provenance in their
    results. The ``guard.*`` registry counters are its accounting.

    Parameters
    ----------
    predictor:
        The trained learned-model predictor (the "raal" stage).
    gpsj:
        Analytic fallback model; when ``None`` the chain skips straight
        to the heuristic.
    breaker_config:
        Trip threshold / cooldown shared by the RAAL and GPSJ breakers.
    admission:
        Optional :class:`AdmissionController` bounding learned-model
        concurrency; sheds surface per ``shed_mode``.
    quality:
        Optional :class:`~repro.obs.quality.AccuracyTracker` fed
        (prediction, observed runtime) pairs via
        :meth:`record_observation`; its drift detector — when drifting
        — trips the learned-stage gate with cause ``drift``.
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
        a fresh one with this budget, and a blown deadline of at least
        this budget is a gate strike.
    shed_mode:
        ``"fallback"`` (default) serves shed requests from the analytic
        chain; ``"reject"`` raises :class:`~repro.errors.Overloaded`.
    clock:
        Injectable time source for deterministic tests.
    """

    def __init__(
        self,
        predictor: CostPredictor,
        gpsj: GPSJCostModel | None = None,
        breaker_config: BreakerConfig | None = None,
        admission: AdmissionController | None = None,
        quality: AccuracyTracker | None = None,
        audit: AuditTrail | None = None,
        slo: SLOTracker | None = None,
        workload: str | None = None,
        default_deadline_ms: float | None = None,
        shed_mode: str = "fallback",
        clock: Callable[[], float] = time.monotonic,
    ) -> None:
        if shed_mode not in SHED_MODES:
            raise PredictionError(
                f"unknown shed_mode {shed_mode!r}; expected one of {SHED_MODES}")
        if default_deadline_ms is not None and default_deadline_ms <= 0:
            raise PredictionError(
                f"default_deadline_ms must be > 0, got {default_deadline_ms}")
        self.predictor = predictor
        self.gpsj = gpsj
        self.admission = admission
        self.quality = quality
        self.audit = audit
        self.slo = slo
        self.workload = workload
        self.default_deadline_ms = default_deadline_ms
        self.shed_mode = shed_mode
        self._clock = clock
        self.breakers = {
            stage: CircuitBreaker(config=breaker_config, clock=clock,
                                  on_transition=self._breaker_listener(stage))
            for stage in ("raal", "gpsj")
        }

    def _breaker_listener(self, stage: str) -> Callable[[str, str], None]:
        """Telemetry hook for one stage's breaker state changes.

        Every transition event carries the breaker's last trip cause.
        The RAAL stage's transitions also set the ``health.state`` gauge
        (the :data:`GATE_STATES` index) and count trips per cause.
        """
        def _on_transition(old: str, new: str) -> None:
            cause = self.breakers[stage].cause
            obs.inc(f"guard.{stage}.breaker_transitions_total",
                    help="Circuit breaker state changes")
            obs.emit_event("guard", "breaker_transition",
                           stage=stage, old=old, new=new, cause=cause)
            if stage != "raal":
                return
            obs.set_gauge("health.state", GATE_STATES.index(new),
                          help="Learned-stage gate (0=closed, 1=half_open, "
                               "2=open)")
            if new == OPEN:
                obs.inc(f"gate.{cause}_trips_total",
                        help="Learned-stage gate trips with this cause")
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
        """Release the wrapped predictor's worker pool."""
        self.predictor.close()

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

    def health_state(self) -> dict[str, object]:
        """Live overload-resilience posture (``repro doctor`` and tests).

        Summarizes the learned-stage gate (state and last trip cause),
        breaker states, and admission / quality snapshots in one
        JSON-friendly dict.
        """
        gate = self.breakers["raal"]
        state: dict[str, object] = {
            "gate": {"state": gate.state, "cause": gate.cause},
            "precision": self.predictor.config.precision,
            "breakers": {stage: breaker.state
                         for stage, breaker in self.breakers.items()},
            "shed_mode": self.shed_mode,
            "default_deadline_ms": self.default_deadline_ms,
        }
        if self.admission is not None:
            state["admission"] = self.admission.snapshot()
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

        The learned stage answers unless it declines (see
        :meth:`_learned`); then GPSJ answers unless it fails or is
        absent; then the heuristic, which cannot fail. Raises only
        :class:`~repro.errors.Overloaded`, when a shed occurs under
        ``shed_mode="reject"``.
        """
        if not pairs:
            return ExplainedPredictions(costs=np.zeros(0),
                                        source=DEFAULT_CHAIN[0])
        if deadline is None and self.default_deadline_ms is not None:
            deadline = Deadline.from_ms(self.default_deadline_ms,
                                        clock=self._clock)
        started = self._clock()
        with obs.span("guarded_predict", pairs=len(pairs)) as sp:
            obs.inc("guard.requests_total", help="Guarded prediction requests")
            reasons: list[str] = []
            costs = self._learned(pairs, deadline, reasons)
            source = "raal"
            if costs is None:
                costs = self._analytic(pairs, reasons)
                source = "gpsj"
                if costs is None:
                    costs = np.array([static_heuristic_cost(plan, resources)
                                      for plan, resources in pairs])
                    source = "heuristic"
            obs.inc(f"guard.{source}.served_total",
                    help="Requests answered by this stage")
            reason = "; ".join(reasons) or None
            degraded = source != DEFAULT_CHAIN[0]
            sp.annotate(source=source, degraded=degraded)
            if degraded:
                obs.inc("guard.degraded_total",
                        help="Requests served by a fallback stage")
                obs.emit_event("guard", "fallback", source=source,
                               reason=reason)
            request_ids = self._record_served(
                pairs, members or [len(pairs)], costs, stage=source,
                reason=reason, latency=self._clock() - started)
            return ExplainedPredictions(costs=costs, source=source,
                                        reason=reason, request_ids=request_ids)

    def _learned(self, pairs, deadline: Deadline | None, reasons: list[str]
                 ) -> np.ndarray | None:
        """The learned stage's costs, or ``None`` with the reason
        appended when the chain falls through.

        Failures and blown server deadlines are gate strikes.
        Input-validation
        rejections (a bad *request*, e.g. an oversized plan) and
        admission sheds are not — they say nothing about the model's
        health — and a shed hands a half-open probe slot on.
        """
        problem = self._validate_inputs(pairs)
        if problem is not None:
            obs.inc("guard.raal.rejected_input_total",
                    help="Requests the learned model refused")
            obs.emit_event("guard", "rejected_input", stage="raal",
                           reason=problem)
            reasons.append(f"raal: {problem}")
            return None
        breaker = self.breakers["raal"]
        if not breaker.allow():
            obs.inc("guard.raal.skipped_open_total",
                    help="Stage skipped while breaker open")
            reasons.append(f"raal: circuit open ({breaker.cause})")
            return None
        admit = (self.admission.admit(deadline)
                 if self.admission is not None else nullcontext())
        try:
            with admit:
                costs = self._raal_costs(pairs, deadline)
        except Overloaded as exc:
            breaker.release()
            obs.emit_event("guard", "shed", stage="raal", error=str(exc))
            reasons.append(f"raal: shed — {exc}")
            if self.shed_mode == "reject":
                raise
            return None
        except DeadlineExceeded as exc:
            # Only the server's own budget judges the model: a client may
            # ask for any budget, and a fused batch runs under its
            # tightest member's.
            budget = deadline.budget_seconds if deadline else None
            if (budget is not None and self.default_deadline_ms is not None
                    and budget >= self.default_deadline_ms / 1e3):
                breaker.record_failure("deadline")
            else:
                breaker.release()
            obs.inc("guard.raal.deadline_exceeded_total",
                    help="Learned-stage attempts abandoned past their "
                         "deadline")
            obs.emit_event("guard", "deadline_exceeded", stage="raal",
                           error=str(exc))
            reasons.append(f"raal: deadline_exceeded — {exc}")
            return None
        except Exception as exc:  # reliability boundary: degrade, never crash
            self._stage_failed("raal", exc, reasons)
            return None
        breaker.record_success()
        return costs

    def _analytic(self, pairs, reasons: list[str]) -> np.ndarray | None:
        """GPSJ costs, or ``None`` with the reason appended."""
        if self.gpsj is None:
            reasons.append("gpsj: no GPSJ model configured")
            return None
        breaker = self.breakers["gpsj"]
        if not breaker.allow():
            obs.inc("guard.gpsj.skipped_open_total",
                    help="Stage skipped while breaker open")
            reasons.append("gpsj: circuit open")
            return None
        try:
            costs = np.array([self.gpsj.estimate(plan, resources)
                              for plan, resources in pairs])
            if not np.all(np.isfinite(costs)) or np.any(costs < 0):
                raise PredictionError(
                    "GPSJ produced non-finite or negative costs")
        except Exception as exc:  # reliability boundary: degrade, never crash
            self._stage_failed("gpsj", exc, reasons)
            return None
        breaker.record_success()
        return costs

    def _stage_failed(self, stage: str, exc: Exception,
                      reasons: list[str]) -> None:
        self.breakers[stage].record_failure()
        obs.inc(f"guard.{stage}.failures_total", help="Stage failures")
        obs.emit_event("guard", "stage_failure", stage=stage, error=str(exc))
        reasons.append(f"{stage}: {exc}")
    # -- the feedback loop -------------------------------------------------
    def _record_served(self, pairs, members: list[int], costs: np.ndarray,
                       stage: str, reason: str | None,
                       latency: float) -> tuple[str, ...]:
        """Audit the served answers, one request id per member, and feed
        the latency SLO (best effort)."""
        obs.observe("guard.latency_seconds", latency,
                    help="End-to-end guarded request latency")
        if self.slo is not None and "latency" in self.slo.names():
            self.slo.record("latency", latency)
        if self.audit is None:
            return ()
        served_tier = (self.predictor.config.precision if stage == "raal"
                       else None)
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
        learned-stage gate. Returns the sample's q-error, or ``None``
        when the record is unknown/evicted or ground truth is unusable.
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
        """Drifting accuracy opens the learned-stage gate.

        Called after every quality-tracked feedback sample: while the
        detector reports drift, the learned model's answers are not
        trusted, so the gate is (re-)tripped with cause ``drift``. Its
        cooldown probe still lets a learned answer through periodically;
        if the feedback stream keeps drifting the next sample trips it
        again, and once the detector recovers the probe sticks.
        """
        detector = self.quality.drift
        if detector is not None and detector.state == DRIFT:
            self.breakers["raal"].trip("drift")

    # -- the learned stage -------------------------------------------------
    def _raal_costs(self, pairs, deadline: Deadline | None = None
                    ) -> np.ndarray:
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
        costs, saturated = self.predictor.predict_encoded(encoded,
                                                          deadline=deadline)
        if not np.all(np.isfinite(costs)):
            raise PredictionError("model produced non-finite costs")
        if saturated:
            raise PredictionError(
                f"model output saturated the log-cost clamp for "
                f"{saturated} of {len(costs)} samples")
        return costs

    # -- input validation --------------------------------------------------
    def _validate_inputs(self, pairs) -> str | None:
        """Reason string when the request cannot go to the learned model.

        Each distinct plan and profile object is checked once, at the
        first pair that uses it: a grid of ``plans × profiles`` costs one
        check per object, not per pair. The reason names that first pair.
        """
        structure = self.predictor.encoder.structure
        max_nodes = structure.max_nodes if structure is not None else None
        plans_seen: set[int] = set()
        profiles_seen: set[int] = set()
        for i, (plan, resources) in enumerate(pairs):
            new_plan = id(plan) not in plans_seen
            if new_plan:
                plans_seen.add(id(plan))
                if max_nodes is not None and plan.num_nodes > max_nodes:
                    return (f"plan {i} has {plan.num_nodes} nodes, exceeding "
                            f"the encoder's max_nodes={max_nodes}")
            if id(resources) not in profiles_seen:
                profiles_seen.add(id(resources))
                if not np.all(np.isfinite(resources.as_features())):
                    return f"resource profile {i} has non-finite features"
                if resources.executor_memory_gb <= 0 or resources.task_slots < 1:
                    return f"resource profile {i} has non-positive resources"
            if new_plan and not plan.estimates_finite():
                return f"plan {i} carries non-finite cardinality estimates"
        return None
