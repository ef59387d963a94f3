"""End-to-end plan encoding: (plan, resources) → model-ready arrays.

Combines the node-semantic embedding, the structure embedding, the
normalized resource vector (eq. 1), and plan-level statistical extras
into one :class:`EncodedPlan`. This is the feature-encoding phase of
the paper's Fig. 3 pipeline.

Encoding splits into a *plan-side* part (semantic matrix, structure
embedding, child mask, statistical extras — everything derived from the
plan alone) and a *resource-side* part (the normalized resource
vector). The plan-side features are memoized in a bounded LRU keyed by
a plan fingerprint, so grid workloads (``plans × profiles`` in the
advisor and selector) encode each plan once instead of once per
resource profile.

A cold :meth:`PlanEncoder.encode_many` pays one tokenise-and-embed per
distinct node text in the call, not per node: the candidate plans of
one statement share their scans, filters and exchanges. The memo of
token means is a plain dict that lives only for that call, so no
process-wide state grows with the statements served.
"""

from __future__ import annotations

import math
import threading
from collections import Counter, OrderedDict
from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster.resources import ResourceProfile
from repro.encoding.node_semantic import NodeSemanticEncoder
from repro.encoding.onehot import OneHotOperatorEncoder
from repro.encoding.structure import DEFAULT_MAX_NODES, StructureEncoder
from repro.errors import EncodingError
from repro.plan.physical import PhysicalPlan
from repro.text.word2vec import Word2VecConfig

__all__ = [
    "EncodedPlan",
    "PlanEncoder",
    "EXTRA_FEATURE_NAMES",
    "plan_fingerprint",
    "EncoderCacheInfo",
]

EXTRA_FEATURE_NAMES = [
    "log_est_result_rows",
    "log_est_total_bytes",
    "num_nodes_frac",
    "num_joins_frac",
    "plan_depth_frac",
]

_LOG_ROWS_CAP = math.log1p(1e9)
_LOG_BYTES_CAP = math.log1p(1e12)
_JOIN_OPS = {"SortMergeJoin", "BroadcastHashJoin", "BroadcastNestedLoopJoin"}


def plan_fingerprint(plan: PhysicalPlan) -> str:
    """Stable digest of everything the plan-side features depend on.

    Covers the per-node execution statements (semantic features), the
    tree edges (structure embedding / child mask), and the per-node
    cardinality estimates (cardinality features and extras). Two plans
    with equal fingerprints encode to identical plan-side features.
    A frozen plan returns the digest computed when it was frozen.
    """
    return plan.fingerprint()


@dataclass(frozen=True)
class EncoderCacheInfo:
    """Hit/miss statistics of a :class:`PlanEncoder`'s plan-side cache."""

    hits: int
    misses: int
    size: int
    capacity: int
    evictions: int = 0


@dataclass
class _PlanFeatures:
    """Cached plan-side features (everything except the resource vector)."""

    node_features: np.ndarray
    child_mask: np.ndarray
    extras: np.ndarray


@dataclass
class EncodedPlan:
    """Model-ready representation of one (plan, resources) sample.

    Attributes
    ----------
    node_features:
        ``(n_nodes, feature_dim)``: semantic ‖ structure vectors, in
        execution order.
    child_mask:
        Boolean ``(n_nodes, n_nodes)`` child adjacency for node-aware
        attention.
    resources:
        Normalized resource vector (eq. 1).
    extras:
        Plan-level statistical features (cardinality etc.).
    """

    node_features: np.ndarray
    child_mask: np.ndarray
    resources: np.ndarray
    extras: np.ndarray

    @property
    def num_nodes(self) -> int:
        """Number of plan operators encoded."""
        return self.node_features.shape[0]


class PlanEncoder:
    """Encodes physical plans for the deep cost models.

    Parameters
    ----------
    semantic:
        Trained node-semantic encoder (word2vec based). When ``None``
        together with ``use_onehot=True``, nodes are encoded with the
        Table II one-hot scheme instead (for the ablation).
    structure:
        Structure encoder; pass ``None`` with ``use_structure=False``
        to drop structure features (the NE-LSTM ablation).
    cache_size:
        Capacity of the plan-side LRU cache (entries). ``0`` disables
        caching entirely.
    """

    def __init__(
        self,
        semantic: NodeSemanticEncoder | None = None,
        structure: StructureEncoder | None = None,
        use_structure: bool = True,
        use_onehot: bool = False,
        cache_size: int = 256,
    ) -> None:
        if semantic is None and not use_onehot:
            raise EncodingError("need a semantic encoder or use_onehot=True")
        if cache_size < 0:
            raise EncodingError("cache_size must be >= 0")
        self.semantic = semantic
        self.cache_size = cache_size
        self._cache: OrderedDict[str, _PlanFeatures] = OrderedDict()
        self._hits = 0
        self._misses = 0
        self._evictions = 0
        # The LRU dict and its counters are mutated on every lookup
        # (move_to_end / popitem), so concurrent predict calls — e.g.
        # request threads sharing one predictor — must serialize on this
        # lock; OrderedDict mutation is not atomic under free-threaded
        # interleavings. RLock because cache_clear() is called from
        # locked paths (the config setters).
        self._lock = threading.RLock()
        # The switches below go through properties so that flipping one
        # after construction invalidates cached plan-side features.
        self._use_onehot = bool(use_onehot)
        self._onehot = OneHotOperatorEncoder() if use_onehot else None
        self._use_structure = bool(use_structure)
        self.structure = structure or (StructureEncoder() if use_structure else None)

    @classmethod
    def fit(cls, plans: list[PhysicalPlan],
            word2vec_config: Word2VecConfig | None = None,
            max_nodes: int = DEFAULT_MAX_NODES,
            use_structure: bool = True,
            use_onehot: bool = False,
            cache_size: int = 256) -> "PlanEncoder":
        """Fit the word2vec semantic encoder on a workload's plans."""
        semantic = None
        if not use_onehot:
            semantic = NodeSemanticEncoder.fit(plans, config=word2vec_config)
        return cls(
            semantic=semantic,
            structure=StructureEncoder(max_nodes=max_nodes),
            use_structure=use_structure,
            use_onehot=use_onehot,
            cache_size=cache_size,
        )

    # -- config switches (cache-invalidating) --------------------------------
    @property
    def use_onehot(self) -> bool:
        """Whether nodes use the Table II one-hot scheme (vs word2vec)."""
        return self._use_onehot

    @use_onehot.setter
    def use_onehot(self, value: bool) -> None:
        value = bool(value)
        if value == self._use_onehot:
            return
        if value and self._onehot is None:
            self._onehot = OneHotOperatorEncoder()
        if not value and self.semantic is None:
            raise EncodingError("cannot disable one-hot without a semantic encoder")
        self._use_onehot = value
        self.cache_clear()

    @property
    def use_structure(self) -> bool:
        """Whether structure (edge) features are appended per node."""
        return self._use_structure

    @use_structure.setter
    def use_structure(self, value: bool) -> None:
        value = bool(value)
        if value != self._use_structure:
            if value and self.structure is None:
                self.structure = StructureEncoder()
            self._use_structure = value
            self.cache_clear()

    @property
    def node_dim(self) -> int:
        """Per-node feature length after concatenation."""
        base = self._onehot.dim if self.use_onehot else self.semantic.dim
        if self.use_structure:
            base += self.structure.dim
        return base

    @property
    def extras_dim(self) -> int:
        """Number of plan-level extra features."""
        return len(EXTRA_FEATURE_NAMES)

    # -- cache ---------------------------------------------------------------
    def cache_info(self) -> EncoderCacheInfo:
        """Current hit/miss statistics of the plan-side cache."""
        with self._lock:
            return EncoderCacheInfo(hits=self._hits, misses=self._misses,
                                    size=len(self._cache), capacity=self.cache_size,
                                    evictions=self._evictions)

    def cache_clear(self) -> None:
        """Drop all cached plan-side features and reset the counters."""
        with self._lock:
            self._cache.clear()
            self._hits = 0
            self._misses = 0
            self._evictions = 0

    def _plan_features(self, plan: PhysicalPlan, repeats: int = 0,
                       memo: dict | None = None) -> _PlanFeatures:
        """Plan-side features, served from the LRU cache when possible.

        ``repeats`` counts further uses of the plan in the same call:
        they are served by this one lookup and tallied as cache hits.
        ``memo`` is the calling ``encode_many``'s node-text memo.

        Thread-safe: lookup, insertion, and eviction all run under the
        encoder lock. A miss computes the features inside the lock —
        simpler than a per-key guard, and it also prevents two threads
        from redundantly encoding the same plan at the same time.
        """
        if self.cache_size == 0:
            return self._compute_plan_features(plan, memo)
        key = plan_fingerprint(plan)
        with self._lock:
            cached = self._cache.get(key)
            hits = repeats + (cached is not None)
            if hits:
                self._hits += hits
                obs.inc("encoder.cache.hits", hits)
            if cached is not None:
                self._cache.move_to_end(key)
                return cached
            self._misses += 1
            obs.inc("encoder.cache.misses")
            features = self._compute_plan_features(plan, memo)
            # Cached arrays are shared between EncodedPlan instances; mark
            # them read-only so an accidental in-place write cannot corrupt
            # later cache hits.
            for array in (features.node_features, features.child_mask, features.extras):
                array.setflags(write=False)
            self._cache[key] = features
            while len(self._cache) > self.cache_size:
                self._cache.popitem(last=False)
                self._evictions += 1
                obs.inc("encoder.cache.evictions")
                obs.emit_event("encoder", "cache_evict",
                               size=len(self._cache), capacity=self.cache_size)
            return features

    def _compute_plan_features(self, plan: PhysicalPlan,
                               memo: dict | None = None) -> _PlanFeatures:
        """Cold (uncached) computation of the plan-side features.

        Without structure features (the NE-LSTM ablation) the model must
        not receive edge information through any channel, so the
        attention child mask degrades to "every other node" — plain
        self-attention with no tree knowledge.

        Raises :class:`EncodingError` when a feature is non-finite (a
        poisoned vocabulary row, an infinite cardinality estimate), so
        such a plan never reaches the cache or the model.
        """
        semantic = self._semantic_matrix(plan, memo)
        if self.use_structure:
            structure = self.structure.encode_plan(plan)
            node_features = np.concatenate([semantic, structure], axis=1)
            child_mask = self.structure.child_mask(plan)
        else:
            node_features = semantic
            n = plan.num_nodes
            child_mask = ~np.eye(n, dtype=bool)
        features = _PlanFeatures(
            node_features=np.ascontiguousarray(node_features, dtype=np.float64),
            child_mask=child_mask,
            extras=self._plan_extras(plan).astype(np.float64, copy=False),
        )
        if not (np.all(np.isfinite(features.node_features))
                and np.all(np.isfinite(features.extras))):
            raise EncodingError(
                f"non-finite plan features for a {plan.num_nodes}-node plan")
        return features

    # -- encoding ------------------------------------------------------------
    def _semantic_matrix(self, plan: PhysicalPlan,
                         memo: dict | None = None) -> np.ndarray:
        if self.use_onehot:
            return np.stack([self._onehot.encode_node(n) for n in plan.nodes()])
        return self.semantic.encode_plan_nodes(plan, memo)

    def _plan_extras(self, plan: PhysicalPlan) -> np.ndarray:
        nodes = plan.nodes()
        est_result = max(plan.root.est_rows, 0.0)
        est_bytes = sum(max(n.est_bytes, 0.0) for n in nodes)
        num_joins = sum(1 for n in nodes if n.op_name in _JOIN_OPS)

        # Depth via one iterative pass over the post-order node list:
        # children precede parents, so each node's depth is ready when
        # the node is reached. (The old recursive version recomputed
        # child depths exponentially on deep/shared trees.)
        depths: dict[int, int] = {}
        for node in nodes:
            children = node.children
            if children:
                depths[id(node)] = 1 + max(depths[id(c)] for c in children)
            else:
                depths[id(node)] = 1
        plan_depth = depths[id(plan.root)]

        max_nodes = self.structure.max_nodes if self.structure else DEFAULT_MAX_NODES
        return np.array([
            math.log1p(est_result) / _LOG_ROWS_CAP,
            math.log1p(est_bytes) / _LOG_BYTES_CAP,
            len(nodes) / max_nodes,
            num_joins / 8.0,
            plan_depth / max_nodes,
        ])

    def encode(self, plan: PhysicalPlan, resources: ResourceProfile) -> EncodedPlan:
        """Encode one (plan, resource state) pair.

        The plan-side features come from the LRU cache when the plan
        was seen before; only the (cheap) resource vector is computed
        per call.
        """
        with obs.span("encode", nodes=plan.num_nodes) as sp:
            hits_before = self._hits
            features = self._plan_features(plan)
            sp.annotate(cache_hit=self._hits > hits_before)
            return EncodedPlan(
                node_features=features.node_features,
                child_mask=features.child_mask,
                resources=np.asarray(resources.as_features(), dtype=np.float64),
                extras=features.extras,
            )

    def encode_many(self, pairs: list[tuple[PhysicalPlan, ResourceProfile]]) -> list[EncodedPlan]:
        """Encode a list of (plan, resources) pairs.

        Repeated plans within one call are deduplicated: each distinct
        plan object is fingerprinted and looked up once, then shared
        across all its (plan, profile) pairs — the advisor/selector grid
        shape (``plans × profiles``) hits this path. The repeats still
        count as cache hits. Likewise each distinct profile object is
        normalized once; the shared resource vector is read-only, like
        the cached plan-side arrays. A frozen plan's fingerprint is read
        from its facts, not recomputed. Cache misses share one node-text
        memo, dropped on return: each distinct node text in the call is
        tokenised and embedded once.
        """
        with obs.span("encode", pairs=len(pairs)) as sp:
            hits_before = self._hits
            plans = {id(plan): plan for plan, _ in pairs}
            uses = Counter(id(plan) for plan, _ in pairs)
            memo: dict = {}
            features = {key: self._plan_features(plan, uses[key] - 1, memo)
                        for key, plan in plans.items()}
            vectors: dict[int, np.ndarray] = {}
            out: list[EncodedPlan] = []
            for plan, resources in pairs:
                plan_side = features[id(plan)]
                vector = vectors.get(id(resources))
                if vector is None:
                    vector = np.array(resources.as_features(), dtype=np.float64)
                    vector.setflags(write=False)
                    vectors[id(resources)] = vector
                out.append(EncodedPlan(
                    node_features=plan_side.node_features,
                    child_mask=plan_side.child_mask,
                    resources=vector,
                    extras=plan_side.extras,
                ))
            sp.annotate(cache_hits=self._hits - hits_before)
            return out
