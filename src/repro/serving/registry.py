"""Model registry: shards by model id, hot swap by shadow + promote.

The serving layer holds one :class:`ModelShard` per model id (tenant).
Each shard owns its own micro-batcher and guarded predictor, so two
tenants never contend on a lock, a batch queue, or a breaker — the
"worker pool sharded by model id".

A shard's current model is replaced with **zero downtime**:

1. ``deploy`` loads a candidate checkpoint — after
   :func:`~repro.core.persistence.verify_checkpoint` proves the
   SHA-256 manifest intact — next to the incumbent;
2. the candidate **shadow-scores live traffic**: every fused batch the
   incumbent serves is re-scored on the candidate by a
   :class:`~repro.reliability.shadow.ShadowScorer`, which records the
   per-pair candidate-vs-incumbent q-error under ``serve.shadow.*``
   (never into the incumbent's ``quality.*`` metrics). The re-score
   runs on the thread that runs the batch, before the batcher
   releases the batch's members, so it adds the candidate's forward
   to every shadowed response;
3. ``promote`` — manual or automatic once ``shadow_requests`` batches
   are scored — atomically swaps the shard's model reference when the
   candidate's mean divergence is inside ``max_qerror`` (or is forced);
   ``rollback`` swaps the previous incumbent back.

The swap itself is one attribute store under the shard's swap lock;
readers resolve ``shard.current`` exactly once per fused batch, so an
in-flight batch is always served end-to-end by one model version —
old or new, never a torn mixture. Retired models are kept referenced
(rollback needs the previous one anyway) and their executors are only
closed when the shard shuts down, so late batches on the old version
finish safely.

Every loaded model gets a version string ``g<generation>-<sha12>``:
a monotonically increasing generation plus the first 12 hex chars of
the checkpoint's manifest hash
(:func:`~repro.core.persistence.checkpoint_fingerprint`), so responses
carry provenance that survives identical-weight redeploys.

A model's weights are frozen when it enters serving (``install`` or
``deploy``): a served model changes only by deploying another, and an
in-place write to its parameters raises. Each version's executor
therefore computes a plan's plan side once and keeps it for the
version's lifetime; a candidate's shadow fills its own memo, never
the incumbent's.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Callable

from repro import obs
from repro.baselines.gpsj import GPSJCostModel
from repro.core.persistence import (
    checkpoint_fingerprint,
    load_predictor,
    verify_checkpoint,
)
from repro.core.predictor import CostPredictor
from repro.errors import (CheckpointError, DeployConflict, ModelNotFound,
                          PredictionError)
from repro.nn.inference import freeze_weights
from repro.obs.audit import AuditTrail
from repro.obs.quality import AccuracyTracker, DriftDetector
from repro.obs.slo import SLO, SLOTracker
from repro.reliability.admission import AdmissionController
from repro.reliability.deadline import Deadline
from repro.reliability.guard import GuardedCostPredictor
from repro.reliability.shadow import ShadowScorer
from repro.serving.batcher import BatchItem, MicroBatcher

__all__ = ["ServingModel", "CandidateState", "ModelShard", "ModelRegistry"]


@dataclass(frozen=True)
class ServingModel:
    """One loaded model version behind a shard (immutable record)."""

    version: str
    guard: GuardedCostPredictor
    checkpoint: str | None = None
    loaded_at: float = 0.0


@dataclass
class CandidateState:
    """A deployed-but-not-promoted model shadowing live traffic."""

    model: ServingModel
    shadow_requests: int
    max_qerror: float
    auto_promote: bool
    shadow: ShadowScorer = field(
        default_factory=lambda: ShadowScorer("serve.shadow"))

    def snapshot(self) -> dict:
        shadow = self.shadow.snapshot()
        return {
            "version": self.model.version,
            "checkpoint": self.model.checkpoint,
            "shadow_samples": shadow["samples"],
            "shadow_target": self.shadow_requests,
            "shadow_errors": shadow["errors"],
            "divergence_mean": shadow["mean"],
            "divergence_p95": shadow["p95"],
            "max_qerror": self.max_qerror,
            "auto_promote": self.auto_promote,
        }


class ModelShard:
    """One model id's serving lane: batcher + swap lock + history.

    The shard's :class:`MicroBatcher` runs its batches on the callers'
    own threads; shards never share queues, breakers, or swap locks. The per-shard
    :class:`~repro.obs.audit.AuditTrail` and
    :class:`~repro.obs.slo.SLOTracker` are shared across the shard's
    model *versions* (a swap must not reset request-id minting or the
    SLO burn history), while quality tracking and the learned-stage
    gate are per-version — they measure one model.
    """

    def __init__(self, model_id: str, build_guard: Callable,
                 clock: Callable[[], float] = time.monotonic) -> None:
        self.model_id = model_id
        self._build_guard = build_guard
        self._clock = clock
        self._swap_lock = threading.Lock()
        self._generation = 0
        self.current: ServingModel | None = None
        self.candidate: CandidateState | None = None
        self._previous: ServingModel | None = None
        self._retired: list[ServingModel] = []
        self.batcher = MicroBatcher(self._execute)

    # -- serving -----------------------------------------------------------
    def predict(self, pairs, deadline: Deadline | None = None) -> BatchItem:
        """Score pairs through the micro-batcher; see :class:`BatchItem`."""
        if self.current is None:
            raise PredictionError(
                f"model {self.model_id!r} has no promoted version yet")
        return self.batcher.submit(pairs, deadline=deadline)

    def _execute(self, pairs, deadline: Deadline | None, sizes: list[int]):
        """One fused batch (``sizes``: member pair counts): resolve the
        model once, serve, shadow-score.

        ``self.current`` is read exactly once; the whole batch — and
        its provenance — belongs to that version even if a promote
        lands mid-flight.
        """
        model = self.current
        if model is None:
            raise PredictionError(
                f"model {self.model_id!r} has no promoted version yet")
        explained = model.guard.predict_many_explained(
            pairs, deadline=deadline, members=sizes)
        self._shadow(pairs, explained)
        # Version travels with the result via an attribute rather than
        # the dataclass (ExplainedPredictions stays serving-agnostic).
        object.__setattr__(explained, "_model_version", model.version)
        return explained

    # -- hot swap ----------------------------------------------------------
    def _serve(self, predictor: CostPredictor):
        """The guard of a predictor entering serving, weights frozen.

        A served model is changed only by deploying another: its
        parameters become immutable, so an in-place write raises, and
        its executor keeps each plan's plan side for the version's
        lifetime.
        """
        freeze_weights(predictor.trainer.model)
        return self._build_guard(predictor)

    def _next_version(self, checkpoint: str | None) -> str:
        self._generation += 1
        sha = "unversioned"
        if checkpoint is not None:
            try:
                sha = checkpoint_fingerprint(checkpoint)[:12]
            except CheckpointError:
                sha = "unverified"
        return f"g{self._generation}-{sha}"

    def install(self, predictor: CostPredictor,
                checkpoint: str | None = None) -> ServingModel:
        """Install an initial (or forced) incumbent without shadowing."""
        model = ServingModel(
            version=self._next_version(checkpoint),
            guard=self._serve(predictor),
            checkpoint=checkpoint, loaded_at=self._clock())
        with self._swap_lock:
            if self.current is not None:
                self._retire(self.current)
            self.current = model
        obs.emit_event("serve", "model_installed", model=self.model_id,
                       version=model.version)
        return model

    def deploy(self, checkpoint: str, shadow_requests: int = 32,
               max_qerror: float = 1.5,
               auto_promote: bool = True) -> dict:
        """Verify + load a candidate checkpoint and start shadowing.

        Raises :class:`CheckpointError` when the manifest does not
        verify, and :class:`DeployConflict` when a candidate is
        already in flight (reject or promote it first). A shard with
        no incumbent promotes the candidate immediately — there is no
        traffic to shadow.
        """
        report = verify_checkpoint(checkpoint)
        if not report.ok:
            raise CheckpointError(f"refusing to deploy: {report.summary()}")
        with self._swap_lock:
            if self.candidate is not None:
                raise DeployConflict(
                    f"model {self.model_id!r} already has candidate "
                    f"{self.candidate.model.version}; promote or roll it "
                    f"back first")
        predictor = load_predictor(checkpoint)
        model = ServingModel(
            version=self._next_version(checkpoint),
            guard=self._serve(predictor),
            checkpoint=checkpoint, loaded_at=self._clock())
        state = CandidateState(
            model=model, shadow_requests=max(int(shadow_requests), 0),
            max_qerror=float(max_qerror), auto_promote=auto_promote)
        with self._swap_lock:
            if self.current is None:
                self.current = model
                obs.emit_event("serve", "model_installed",
                               model=self.model_id, version=model.version)
                return {"state": "promoted", "version": model.version}
            self.candidate = state
        obs.inc("serve.deploys_total", help="Candidate checkpoints deployed")
        obs.emit_event("serve", "candidate_deployed", model=self.model_id,
                       version=model.version, checkpoint=checkpoint,
                       shadow_requests=state.shadow_requests)
        if state.shadow_requests == 0 and auto_promote:
            return {"state": "promoted", "version": self.promote(force=True)}
        return {"state": "shadowing", "version": model.version}

    def _shadow(self, pairs, explained) -> None:
        """Score one live batch on the candidate.

        Runs on the batch's thread before the batcher releases its
        members, so a shadowed response waits for the
        candidate's forward. A failing candidate is counted, never
        raised.
        """
        state = self.candidate
        if state is None:
            return
        scored = state.shadow.score(
            explained.costs,
            lambda: state.model.guard.predictor.predict_many(pairs))
        if scored is None:
            return
        if (state.auto_promote
                and state.shadow.samples >= state.shadow_requests):
            try:
                self.promote()
            except DeployConflict as exc:
                # Gate failed: reject the candidate so traffic stops
                # paying the shadow tax for a model that lost.
                obs.emit_event("serve", "candidate_rejected",
                               model=self.model_id,
                               version=state.model.version, reason=str(exc))
                with self._swap_lock:
                    if self.candidate is state:
                        self.candidate = None
                        self._retire(state.model)

    def _gate(self, state: CandidateState) -> str | None:
        """Reason the candidate may not be promoted (None = clear)."""
        shadow = state.shadow.snapshot()
        if not shadow["samples"]:
            if shadow["errors"]:
                return (f"candidate failed all {shadow['errors']} shadow "
                        f"batches")
            return "candidate has no shadow samples yet"
        mean = shadow["mean"]
        if mean > state.max_qerror:
            return (f"candidate diverges from the incumbent: mean shadow "
                    f"q-error {mean:.3f} > budget {state.max_qerror:.3f}")
        return None

    def promote(self, force: bool = False) -> str:
        """Atomically make the candidate the incumbent; returns version.

        Without ``force`` the shadow gate must pass: at least one
        shadow sample, mean candidate-vs-incumbent q-error within the
        deploy's ``max_qerror``.
        """
        with self._swap_lock:
            state = self.candidate
            if state is None:
                raise DeployConflict(
                    f"model {self.model_id!r} has no candidate to promote")
            if not force:
                reason = self._gate(state)
                if reason is not None:
                    raise DeployConflict(f"promotion gate failed: {reason}")
            old, self.current = self.current, state.model
            self.candidate = None
            if self._previous is not None:
                self._retired.append(self._previous)
            self._previous = old
            if old is not None:
                old.guard.set_live(False)
        obs.inc("serve.promotions_total", help="Candidate models promoted")
        obs.emit_event("serve", "model_promoted", model=self.model_id,
                       version=state.model.version,
                       previous=old.version if old else None,
                       forced=force,
                       shadow_samples=state.shadow.samples)
        return state.model.version

    def rollback(self) -> str:
        """Swap the previous incumbent back; returns its version."""
        with self._swap_lock:
            if self._previous is None:
                raise DeployConflict(
                    f"model {self.model_id!r} has no previous version to "
                    f"roll back to")
            demoted, self.current = self.current, self._previous
            self._previous = None
            if demoted is not None:
                self._retire(demoted)
            self.current.guard.set_live(True)
        obs.inc("serve.rollbacks_total", help="Model rollbacks")
        obs.emit_event("serve", "model_rolled_back", model=self.model_id,
                       version=self.current.version,
                       demoted=demoted.version if demoted else None)
        return self.current.version

    def _retire(self, model: ServingModel) -> None:
        """Park a replaced model; executors close at shard shutdown.

        Its gate stops counting toward ``health.state`` at once.
        """
        model.guard.set_live(False)
        self._retired.append(model)

    # -- lifecycle / introspection ----------------------------------------
    def close(self) -> None:
        """Close the batcher and release every version's executor."""
        self.batcher.close()
        for model in self._retired:
            model.guard.close()
        self._retired = []
        for slot in (self._previous, self.current,
                     self.candidate.model if self.candidate else None):
            if slot is not None:
                slot.guard.close()

    def snapshot(self) -> dict:
        """JSON-friendly shard state for ``/v1/models`` and health."""
        current = self.current
        return {
            "model": self.model_id,
            "version": current.version if current else None,
            "checkpoint": current.checkpoint if current else None,
            "previous": (self._previous.version
                         if self._previous is not None else None),
            "candidate": (self.candidate.snapshot()
                          if self.candidate is not None else None),
            "batcher": self.batcher.snapshot(),
        }


class ModelRegistry:
    """All shards of one serving process, keyed by model id.

    ``build_guard`` is supplied by the service so every shard's guard
    shares the serving policy (execution config, deadlines, shed mode)
    while owning its own reliability state.
    """

    def __init__(self, build_guard_factory: Callable[[str], Callable],
                 clock: Callable[[], float] = time.monotonic) -> None:
        self._factory = build_guard_factory
        self._clock = clock
        self._lock = threading.Lock()
        self._shards: dict[str, ModelShard] = {}

    def shard(self, model_id: str, create: bool = False) -> ModelShard:
        """Look up (or lazily create) the shard for ``model_id``."""
        with self._lock:
            existing = self._shards.get(model_id)
            if existing is not None:
                return existing
            if not create:
                raise ModelNotFound(f"unknown model {model_id!r}")
            shard = ModelShard(model_id, self._factory(model_id),
                               clock=self._clock)
            self._shards[model_id] = shard
            return shard

    def ids(self) -> list[str]:
        with self._lock:
            return sorted(self._shards)

    def snapshot(self) -> dict:
        return {model_id: self.shard(model_id).snapshot()
                for model_id in self.ids()}

    def close(self) -> None:
        with self._lock:
            shards, self._shards = list(self._shards.values()), {}
        for shard in shards:
            shard.close()


def default_guard_builder(catalog, workload: str | None = None,
                          default_deadline_ms: float | None = None,
                          shed_mode: str = "fallback",
                          admission_config=None) -> Callable[[str], Callable]:
    """Standard serving guard wiring shared by CLI and tests.

    Returns a ``build_guard_factory`` for :class:`ModelRegistry`: per
    shard it creates one shared audit trail and SLO tracker, and per
    model version a fully armed guard (GPSJ fallback, admission
    control, quality tracking; the learned-stage gate at its
    :class:`~repro.reliability.circuit.BreakerConfig` defaults).
    ``repro serve``, ``repro predict`` and ``repro doctor`` all build
    their guard here.
    """
    def factory(model_id: str) -> Callable:
        audit = AuditTrail()
        slo = SLOTracker([
            SLO(name="latency", threshold=0.25, objective=0.999),
            SLO(name="qerror", threshold=2.0, objective=0.95),
        ])

        def build(predictor: CostPredictor) -> GuardedCostPredictor:
            return GuardedCostPredictor(
                predictor,
                gpsj=GPSJCostModel(catalog) if catalog is not None else None,
                admission=AdmissionController(admission_config),
                quality=AccuracyTracker(drift=DriftDetector()),
                audit=audit,
                slo=slo,
                workload=workload or model_id,
                default_deadline_ms=default_deadline_ms,
                shed_mode=shed_mode,
            )
        return build
    return factory
