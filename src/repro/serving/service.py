"""The prediction service: request handling behind the HTTP front-end.

:class:`PredictionService` is the transport-agnostic core of
``repro serve``: it owns the catalog, the per-model shards
(:class:`~repro.serving.registry.ModelRegistry`), a candidate-plan
cache, and the telemetry bundle, and exposes each endpoint as a plain
``dict in → dict out`` method. The HTTP layer
(:mod:`repro.serving.http`) only parses bodies, maps typed errors to
status codes, and serializes responses — so the whole surface is unit
testable without sockets.

Request flow for ``predict``:

1. the SQL is parsed/analyzed once and its candidate plans come from a
   bounded LRU keyed by the statement (steady-state request cost is a
   cache hit plus the model forward); cached plans are frozen
   (:meth:`~repro.plan.physical.PhysicalPlan.freeze`), so their
   fingerprints and node facts are computed once on entry;
2. the (plan, profile) pairs are submitted to the model's shard, whose
   micro-batcher coalesces them with concurrent requests into one
   fused forward through the guarded predictor;
3. the response carries costs, the chosen plan, chain provenance
   (``source``/``reason``), the serving ``model_version``, and the
   request's own audit ``request_id`` + per-plan feedback indexes
   (counted from 0 within the request, even when it was fused with
   others) that close the quality loop via the ``feedback`` endpoint.
"""

from __future__ import annotations

import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field

import numpy as np

from repro import obs
from repro.cluster.resources import PAPER_CLUSTER, ResourceProfile
from repro.core.persistence import load_predictor
from repro.core.predictor import CostPredictor
from repro.errors import ReproError, ServingError
from repro.plan.builder import analyze
from repro.plan.enumerator import enumerate_plans
from repro.reliability.deadline import Deadline
from repro.serving.registry import ModelRegistry, default_guard_builder
from repro.sql.parser import parse as parse_sql

__all__ = ["ServingConfig", "PredictionService", "DEFAULT_MODEL_ID"]

DEFAULT_MODEL_ID = "default"

#: Resource keys accepted in request bodies (``memory_gb`` is an alias
#: for ``executor_memory_gb``; everything else defaults to the paper
#: cluster shape).
_PROFILE_KEYS = ("nodes", "cores_per_node", "executors", "executor_cores",
                 "executor_memory_gb", "network_throughput_mbps",
                 "disk_throughput_mbps")


@dataclass(frozen=True)
class ServingConfig:
    """Boot-time policy of one serving process (CLI flags mirror this)."""

    dataset: str = "imdb"
    catalog_scale: float = 0.15
    #: Synthesized per request when the body carries no ``deadline_ms``.
    default_deadline_ms: float | None = None
    #: Candidate-plan LRU entries (distinct SQL statements).
    plan_cache_size: int = 256


class PredictionService:
    """Transport-agnostic serving core (see module docstring).

    Parameters
    ----------
    config:
        Boot policy; :class:`ServingConfig` defaults match the CLI.
    catalog:
        Injectable for tests; built from ``config.dataset`` otherwise.
    telemetry:
        Optional bundle. When omitted, an already-attached process
        bundle is reused, else the service creates and attaches its
        own (and detaches it again on :meth:`close`).
    clock:
        Injectable monotonic clock shared with the model shards.
    """

    def __init__(self, config: ServingConfig | None = None,
                 catalog=None, telemetry=None,
                 clock=time.monotonic) -> None:
        self.config = config or ServingConfig()
        self._clock = clock
        self._started = clock()
        self._owns_telemetry = False
        if telemetry is None:
            telemetry = obs.active()
        if telemetry is None:
            telemetry = obs.Telemetry.create()
            obs.attach(telemetry)
            self._owns_telemetry = True
        self.telemetry = telemetry
        if catalog is None:
            catalog = self._build_catalog()
        self.catalog = catalog
        self.registry = ModelRegistry(
            default_guard_builder(
                catalog, default_deadline_ms=self.config.default_deadline_ms),
            clock=clock)
        self._plan_lock = threading.Lock()
        self._plan_cache: OrderedDict[str, list] = OrderedDict()
        self.draining = False

    def _build_catalog(self):
        from repro.data.imdb import build_imdb_catalog
        from repro.data.tpch import build_tpch_catalog

        builders = {"imdb": build_imdb_catalog, "tpch": build_tpch_catalog}
        if self.config.dataset not in builders:
            raise ServingError(f"unknown dataset {self.config.dataset!r}")
        return builders[self.config.dataset](scale=self.config.catalog_scale)

    # -- model lifecycle ---------------------------------------------------
    def install_model(self, predictor: CostPredictor,
                      model_id: str = DEFAULT_MODEL_ID,
                      checkpoint: str | None = None) -> str:
        """Install a boot-time incumbent; returns its version."""
        shard = self.registry.shard(model_id, create=True)
        return shard.install(predictor, checkpoint=checkpoint).version

    def load_model(self, checkpoint: str,
                   model_id: str = DEFAULT_MODEL_ID) -> str:
        """Load + install a checkpoint directory as the incumbent."""
        predictor = load_predictor(checkpoint)
        return self.install_model(predictor, model_id=model_id,
                                  checkpoint=checkpoint)

    def close(self) -> None:
        """Drain: close batchers and executors, release telemetry."""
        self.draining = True
        self.registry.close()
        if self._owns_telemetry and obs.active() is self.telemetry:
            obs.detach()

    # -- request plumbing --------------------------------------------------
    def _plans_for(self, sql: str) -> list:
        if not sql or not isinstance(sql, str):
            raise ServingError("request body needs a non-empty 'sql' string")
        key = " ".join(sql.split())
        with self._plan_lock:
            cached = self._plan_cache.get(key)
            if cached is not None:
                self._plan_cache.move_to_end(key)
                obs.inc("serve.plan_cache.hits_total",
                        help="Candidate-plan cache hits")
                return cached
        obs.inc("serve.plan_cache.misses_total",
                help="Candidate-plan cache misses")
        query = analyze(parse_sql(sql), self.catalog)
        plans = enumerate_plans(query, self.catalog)
        if not plans:
            raise ServingError(f"no candidate plans for statement: {sql!r}")
        # Cached plans are shared by every later request for this
        # statement: freeze them so fingerprint, node list and estimate
        # checks are computed once here, never per request.
        for plan in plans:
            plan.freeze()
        with self._plan_lock:
            self._plan_cache[key] = plans
            self._plan_cache.move_to_end(key)
            while len(self._plan_cache) > self.config.plan_cache_size:
                self._plan_cache.popitem(last=False)
        return plans

    def _profile(self, resources: dict | None) -> ResourceProfile:
        if resources is None:
            resources = {}
        if not isinstance(resources, dict):
            raise ServingError("'resources' must be a JSON object")
        fields = {key: getattr(PAPER_CLUSTER, key) for key in _PROFILE_KEYS}
        resources = dict(resources)
        if "memory_gb" in resources:
            resources["executor_memory_gb"] = resources.pop("memory_gb")
        unknown = set(resources) - set(_PROFILE_KEYS)
        if unknown:
            raise ServingError(
                f"unknown resource fields {sorted(unknown)}; expected "
                f"{list(_PROFILE_KEYS)} (or 'memory_gb')")
        fields.update(resources)
        try:
            return ResourceProfile(
                nodes=int(fields["nodes"]),
                cores_per_node=int(fields["cores_per_node"]),
                executors=int(fields["executors"]),
                executor_cores=int(fields["executor_cores"]),
                executor_memory_gb=float(fields["executor_memory_gb"]),
                network_throughput_mbps=float(
                    fields["network_throughput_mbps"]),
                disk_throughput_mbps=float(fields["disk_throughput_mbps"]))
        except (TypeError, ValueError) as exc:
            raise ServingError(f"invalid resource profile: {exc}") from exc

    def _deadline(self, body: dict) -> Deadline | None:
        deadline_ms = body.get("deadline_ms")
        if deadline_ms is None:
            deadline_ms = self.config.default_deadline_ms
        if deadline_ms is None:
            return None
        try:
            deadline_ms = float(deadline_ms)
        except (TypeError, ValueError) as exc:
            raise ServingError(
                f"'deadline_ms' must be a number, got {deadline_ms!r}"
            ) from exc
        if deadline_ms <= 0:
            raise ServingError(f"'deadline_ms' must be > 0, got {deadline_ms}")
        # Created before queueing so the wait behind a running batch
        # counts against the request's budget, not on top of it.
        return Deadline.from_ms(deadline_ms, clock=self._clock)

    def _shard(self, body: dict):
        model_id = body.get("model", DEFAULT_MODEL_ID)
        if not isinstance(model_id, str) or not model_id:
            raise ServingError("'model' must be a non-empty string")
        return self.registry.shard(model_id)

    @staticmethod
    def _observe_endpoint(endpoint: str, seconds: float) -> None:
        obs.inc(f"serve.{endpoint}.requests_total",
                help="Requests handled by this endpoint")
        obs.observe(f"serve.{endpoint}.latency_seconds", seconds,
                    help="End-to-end endpoint latency")

    # -- endpoints ---------------------------------------------------------
    def predict(self, body: dict) -> dict:
        """Score one statement's candidate plans under one profile."""
        start = self._clock()
        shard = self._shard(body)
        plans = self._plans_for(body.get("sql"))
        profile = self._profile(body.get("resources"))
        deadline = self._deadline(body)
        pairs = [(plan, profile) for plan in plans]
        item = shard.predict(pairs, deadline=deadline)
        explained = item.result
        costs = np.asarray(
            explained.costs[item.offset:item.offset + len(pairs)])
        best = int(np.argmin(costs))
        latency = self._clock() - start
        self._observe_endpoint("predict", latency)
        return {
            "model": shard.model_id,
            "model_version": getattr(explained, "_model_version", None),
            "request_id": (explained.request_ids[item.member]
                           if explained.request_ids else None),
            "source": explained.source,
            "reason": explained.reason,
            "chosen": plans[best].label or plans[best].signature(),
            "plans": [
                {"plan": plan.label or plan.signature(),
                 "seconds": float(cost),
                 "feedback_index": i}
                for i, (plan, cost) in enumerate(zip(plans, costs))
            ],
            "latency_ms": latency * 1e3,
            "batched": item.batch_size > len(pairs),
            "batch_pairs": item.batch_size,
        }

    def predict_grid(self, body: dict) -> dict:
        """Score candidate plans under many profiles (one fused call)."""
        start = self._clock()
        shard = self._shard(body)
        plans = self._plans_for(body.get("sql"))
        profiles_body = body.get("profiles")
        if not isinstance(profiles_body, list) or not profiles_body:
            raise ServingError(
                "request body needs a non-empty 'profiles' array")
        profiles = [self._profile(p) for p in profiles_body]
        deadline = self._deadline(body)
        pairs = [(plan, profile) for profile in profiles for plan in plans]
        item = shard.predict(pairs, deadline=deadline)
        explained = item.result
        costs = np.asarray(
            explained.costs[item.offset:item.offset + len(pairs)])
        grid = costs.reshape(len(profiles), len(plans))
        latency = self._clock() - start
        self._observe_endpoint("predict_grid", latency)
        return {
            "model": shard.model_id,
            "model_version": getattr(explained, "_model_version", None),
            "request_id": (explained.request_ids[item.member]
                           if explained.request_ids else None),
            "source": explained.source,
            "reason": explained.reason,
            "plans": [plan.label or plan.signature() for plan in plans],
            "profiles": len(profiles),
            "costs": [[float(c) for c in row] for row in grid],
            "feedback_index": 0,
            "latency_ms": latency * 1e3,
            "batched": item.batch_size > len(pairs),
            "batch_pairs": item.batch_size,
        }

    def feedback(self, body: dict) -> dict:
        """Attach an observed runtime to a served prediction."""
        start = self._clock()
        shard = self._shard(body)
        request_id = body.get("request_id")
        if not isinstance(request_id, str) or not request_id:
            raise ServingError("'request_id' must be a non-empty string")
        observed = body.get("observed_seconds")
        try:
            observed = float(observed)
        except (TypeError, ValueError) as exc:
            raise ServingError(
                f"'observed_seconds' must be a number, got {observed!r}"
            ) from exc
        index = body.get("index", 0)
        if not isinstance(index, int) or index < 0:
            raise ServingError(f"'index' must be a non-negative integer, "
                               f"got {index!r}")
        model = shard.current
        if model is None:
            raise ServingError(f"model {shard.model_id!r} is not serving")
        q_error = model.guard.record_observation(request_id, observed,
                                                index=index)
        self._observe_endpoint("feedback", self._clock() - start)
        return {
            "model": shard.model_id,
            "request_id": request_id,
            "index": index,
            "recorded": q_error is not None,
            "q_error": q_error,
        }

    def deploy(self, body: dict) -> dict:
        """Verify + load a candidate checkpoint for shadow scoring."""
        checkpoint = body.get("checkpoint")
        if not isinstance(checkpoint, str) or not checkpoint:
            raise ServingError("'checkpoint' must be a checkpoint directory")
        model_id = body.get("model", DEFAULT_MODEL_ID)
        shard = self.registry.shard(model_id, create=True)
        outcome = shard.deploy(
            checkpoint,
            shadow_requests=int(body.get("shadow_requests", 32)),
            max_qerror=float(body.get("max_qerror", 1.5)),
            auto_promote=bool(body.get("auto_promote", True)))
        self._observe_endpoint("deploy", 0.0)
        return {"model": model_id, **outcome}

    def promote(self, body: dict) -> dict:
        """Promote the shadowing candidate (``force`` skips the gate)."""
        shard = self._shard(body)
        version = shard.promote(force=bool(body.get("force", False)))
        return {"model": shard.model_id, "state": "promoted",
                "version": version}

    def rollback(self, body: dict) -> dict:
        """Swap the previous incumbent back in."""
        shard = self._shard(body)
        version = shard.rollback()
        return {"model": shard.model_id, "state": "rolled_back",
                "version": version}

    def models(self) -> dict:
        """Registry listing for ``GET /v1/models``."""
        return {"models": self.registry.snapshot()}

    def health(self) -> dict:
        """Liveness + posture for ``GET /healthz``.

        ``status`` is ``ok`` when every shard's learned-stage gate is
        closed, ``degraded`` when any gate is open or half-open, and
        ``draining`` during shutdown.
        """
        models: dict[str, dict] = {}
        worst = "ok"
        for model_id in self.registry.ids():
            shard = self.registry.shard(model_id)
            current = shard.current
            if current is None:
                models[model_id] = {"version": None, "state": "empty"}
                continue
            state = current.guard.health_state()
            models[model_id] = {
                "version": current.version,
                "gate": state["gate"],
                "breakers": state["breakers"],
                "candidate": (shard.candidate.snapshot()
                              if shard.candidate is not None else None),
                "batcher": shard.batcher.snapshot(),
            }
            if state["gate"]["state"] != "closed":
                worst = "degraded"
        status = "draining" if self.draining else worst
        return {
            "status": status,
            "uptime_seconds": self._clock() - self._started,
            "dataset": self.config.dataset,
            "models": models,
        }

    def metrics_text(self) -> str:
        """Prometheus exposition of the service's registry."""
        return self.telemetry.registry.to_prometheus()
