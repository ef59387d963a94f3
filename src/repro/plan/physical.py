"""Physical plan operators with Spark SQL's operator vocabulary.

A physical plan is a tree of :class:`PhysicalNode` objects. Each node
renders itself as the *execution statements* Spark shows in its plan
output (e.g. ``FileScan``, ``Filter``, ``SortMergeJoin``) — these
strings are what the word2vec node-semantic encoder consumes — and
carries cardinality annotations:

* ``est_rows`` / ``est_bytes`` — optimizer estimates (set by
  :func:`annotate_estimates`);
* ``obs_rows`` / ``obs_bytes`` — true values observed by the execution
  engine (set by :func:`repro.engine.executor.execute_plan`); the
  cluster simulator consumes these.

Node ordering follows the paper: nodes are numbered bottom-up in
execution order (post-order traversal), children before parents.

A plan can be *frozen* (:meth:`PhysicalPlan.freeze`) once it is
complete. Freezing computes the facts every consumer re-derives — the
post-order nodes, the edges, the node count, the fingerprint and the
"all estimates finite" flag — exactly once, and from then on any write
to an estimate or a structural field raises :class:`PlanError`, so the
facts cannot go stale. ``obs_rows`` / ``obs_bytes`` stay writable: the
executor records observations on plans that were already costed, and
no frozen fact depends on them.
"""

from __future__ import annotations

import hashlib
import itertools
import math
from dataclasses import dataclass, field
from typing import ClassVar

from repro.errors import PlanError
from repro.sql.ast import (
    AggregateExpr,
    ColumnRef,
    Comparison,
    BetweenPredicate,
    InPredicate,
    IsNullPredicate,
    JoinCondition,
    LikePredicate,
    OrderItem,
)

__all__ = [
    "PhysicalNode",
    "FileScan",
    "FilterExec",
    "ProjectExec",
    "SortExec",
    "ExchangeHashPartition",
    "ExchangeSinglePartition",
    "BroadcastExchange",
    "SortMergeJoin",
    "BroadcastHashJoin",
    "BroadcastNestedLoopJoin",
    "HashAggregate",
    "SortAggregate",
    "LimitExec",
    "PhysicalPlan",
]

#: The node fields a frozen plan still accepts writes to.
_OBSERVED_FIELDS = frozenset({"obs_rows", "obs_bytes"})


def _render_predicate(pred) -> str:
    """Spark-style rendering, e.g. ``(isnotnull(x) && (x > 2))``."""
    col = f"{pred.column.table}.{pred.column.column}"
    if isinstance(pred, Comparison):
        return f"(isnotnull({col}) && ({col} {pred.op.value} {pred.value}))"
    if isinstance(pred, BetweenPredicate):
        return f"(isnotnull({col}) && ({col} >= {pred.low}) && ({col} <= {pred.high}))"
    if isinstance(pred, InPredicate):
        vals = ",".join(str(v) for v in pred.values)
        return f"({col} IN ({vals}))"
    if isinstance(pred, LikePredicate):
        neg = "NOT " if pred.negated else ""
        return f"({neg}{col} LIKE '{pred.pattern}')"
    if isinstance(pred, IsNullPredicate):
        return f"(isnotnull({col}))" if pred.negated else f"(isnull({col}))"
    return str(pred)


@dataclass
class PhysicalNode:
    """Base physical operator."""

    est_rows: float = field(default=0.0, init=False)
    est_bytes: float = field(default=0.0, init=False)
    obs_rows: float | None = field(default=None, init=False)
    obs_bytes: float | None = field(default=None, init=False)

    #: Set per instance by :meth:`PhysicalPlan.freeze`.
    _frozen: ClassVar[bool] = False

    def __setattr__(self, name: str, value) -> None:
        if self._frozen and name not in _OBSERVED_FIELDS:
            raise PlanError(
                f"cannot set {name!r} on a frozen {type(self).__name__}: "
                f"only {sorted(_OBSERVED_FIELDS)} stay writable")
        object.__setattr__(self, name, value)

    @property
    def op_name(self) -> str:
        """Operator name as Spark prints it."""
        return type(self).__name__.removesuffix("Exec")

    @property
    def children(self) -> list["PhysicalNode"]:
        """Child operators."""
        return []

    def statements(self) -> list[str]:
        """Execution statements describing this node (for the encoder)."""
        return [self.op_name]

    @property
    def rows(self) -> float:
        """Observed rows when available, else the estimate."""
        return self.obs_rows if self.obs_rows is not None else self.est_rows

    @property
    def bytes(self) -> float:
        """Observed bytes when available, else the estimate."""
        return self.obs_bytes if self.obs_bytes is not None else self.est_bytes

    def describe(self, indent: int = 0) -> str:
        """EXPLAIN-style rendering of the subtree."""
        info = f"  (est_rows={self.est_rows:.0f}"
        if self.obs_rows is not None:
            info += f", obs_rows={self.obs_rows:.0f}"
        info += ")"
        lines = ["  " * indent + "; ".join(self.statements()) + info]
        for child in self.children:
            lines.append(child.describe(indent + 1))
        return "\n".join(lines)


@dataclass
class FileScan(PhysicalNode):
    """Columnar file scan with optional pushed-down filters."""

    table: str
    alias: str
    columns: list[str] = field(default_factory=list)
    pushed_filters: list = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "FileScan"

    def statements(self) -> list[str]:
        cols = ", ".join(f"{self.alias}.{c}" for c in self.columns)
        stmts = [f"FileScan {self.table} ({cols})"]
        if self.pushed_filters:
            conds = " && ".join(_render_predicate(p) for p in self.pushed_filters)
            stmts.append(f"PushedFilters {conds}")
        return stmts


@dataclass
class FilterExec(PhysicalNode):
    """Row filter applied after a scan (non-pushed predicates)."""

    child: PhysicalNode
    predicates: list = field(default_factory=list)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        conds = " && ".join(_render_predicate(p) for p in self.predicates)
        return [f"Filter {conds}"]


@dataclass
class ProjectExec(PhysicalNode):
    """Column projection."""

    child: PhysicalNode
    columns: list[ColumnRef] = field(default_factory=list)

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["Project [" + ", ".join(str(c) for c in self.columns) + "]"]


@dataclass
class SortExec(PhysicalNode):
    """Per-partition sort (below SMJ or for ORDER BY)."""

    child: PhysicalNode
    keys: list = field(default_factory=list)  # ColumnRef or OrderItem

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        rendered = []
        for key in self.keys:
            if isinstance(key, OrderItem):
                rendered.append(f"{key.column} {'DESC' if key.descending else 'ASC'}")
            else:
                rendered.append(f"{key} ASC")
        return ["Sort [" + ", ".join(rendered) + "]"]


@dataclass
class ExchangeHashPartition(PhysicalNode):
    """Shuffle: hash-partition rows by key across executors."""

    child: PhysicalNode
    keys: list[ColumnRef] = field(default_factory=list)

    @property
    def op_name(self) -> str:
        return "ExchangeHashPartition"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(k) for k in self.keys)
        return [f"Exchange hashpartitioning({keys})"]


@dataclass
class ExchangeSinglePartition(PhysicalNode):
    """Shuffle everything to a single partition (global aggregation)."""

    child: PhysicalNode

    @property
    def op_name(self) -> str:
        return "ExchangeSinglePartition"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["Exchange SinglePartition"]


@dataclass
class BroadcastExchange(PhysicalNode):
    """Broadcast the child relation to every executor."""

    child: PhysicalNode

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return ["BroadcastExchange HashedRelationBroadcastMode"]


@dataclass
class SortMergeJoin(PhysicalNode):
    """Sort-merge join; both inputs must be sorted on the join key."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        cond = str(self.condition) if self.condition else "true"
        return [f"SortMergeJoin [{cond}] Inner"]


@dataclass
class BroadcastHashJoin(PhysicalNode):
    """Hash join with a broadcast build side (the right child)."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        cond = str(self.condition) if self.condition else "true"
        return [f"BroadcastHashJoin [{cond}] Inner BuildRight"]


@dataclass
class BroadcastNestedLoopJoin(PhysicalNode):
    """Nested-loop join for cross joins (no equi-condition)."""

    left: PhysicalNode
    right: PhysicalNode
    condition: JoinCondition | None = None

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.left, self.right]

    def statements(self) -> list[str]:
        return ["BroadcastNestedLoopJoin BuildRight Cross"]


@dataclass
class HashAggregate(PhysicalNode):
    """Hash-based aggregation (partial below an exchange, final above)."""

    child: PhysicalNode
    group_by: list[ColumnRef] = field(default_factory=list)
    aggregates: list[AggregateExpr] = field(default_factory=list)
    mode: str = "final"  # "partial" | "final"

    def __post_init__(self) -> None:
        if self.mode not in ("partial", "final"):
            raise PlanError(f"invalid aggregate mode {self.mode!r}")

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(c) for c in self.group_by)
        aggs = ", ".join(f"{self.mode}_{a}" for a in self.aggregates)
        return [f"HashAggregate(keys=[{keys}], functions=[{aggs}])"]


@dataclass
class SortAggregate(PhysicalNode):
    """Sort-based aggregation (used when hash tables would not fit)."""

    child: PhysicalNode
    group_by: list[ColumnRef] = field(default_factory=list)
    aggregates: list[AggregateExpr] = field(default_factory=list)
    mode: str = "final"

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        keys = ", ".join(str(c) for c in self.group_by)
        aggs = ", ".join(f"{self.mode}_{a}" for a in self.aggregates)
        return [f"SortAggregate(keys=[{keys}], functions=[{aggs}])"]


@dataclass
class LimitExec(PhysicalNode):
    """Global limit."""

    child: PhysicalNode
    count: int = 0

    @property
    def children(self) -> list[PhysicalNode]:
        return [self.child]

    def statements(self) -> list[str]:
        return [f"GlobalLimit {self.count}"]


#: Canonical tuples for frozen plans' edges: one per (child, parent)
#: pair and one per tree shape. A full statement cache holds thousands
#: of plans but only a few hundred shapes, so sharing keeps the memoized
#: edges small. Bounded: once full, new tuples are simply not shared.
_SHARED_TUPLES: dict[tuple, tuple] = {}
_SHARED_TUPLES_CAP = 1 << 14


def _shared(value: tuple) -> tuple:
    """The canonical tuple equal to ``value`` (``value`` when full)."""
    shared = _SHARED_TUPLES.get(value)
    if shared is not None:
        return shared
    if len(_SHARED_TUPLES) >= _SHARED_TUPLES_CAP:
        return value
    return _SHARED_TUPLES.setdefault(value, value)


def _digest(nodes, edges) -> str:
    hasher = hashlib.blake2b(digest_size=16)
    for node in nodes:
        hasher.update(";".join(node.statements()).encode())
        hasher.update(f"|{node.est_rows:.17g}|{node.est_bytes:.17g}\n".encode())
    for child_idx, parent_idx in edges:
        hasher.update(f"{child_idx}>{parent_idx},".encode())
    return hasher.hexdigest()


class PhysicalPlan:
    """A complete physical plan: root node + per-query metadata.

    ``nodes()`` returns operators in execution order (post-order), the
    ordering both the structure encoder and the simulator rely on.
    After :meth:`freeze`, ``nodes``, ``edges``, ``num_nodes``,
    :meth:`fingerprint` and :meth:`estimates_finite` read the facts
    memoized on the plan instead of walking the tree.
    """

    # Slots keep a cached plan, facts included, smaller than a plain
    # instance dict would.
    __slots__ = ("root", "alias_to_table", "label", "plan_id",
                 "_nodes", "_edges", "_fingerprint", "_estimates_finite")
    _ids = itertools.count()

    def __init__(self, root: PhysicalNode, alias_to_table: dict[str, str],
                 label: str = "") -> None:
        self._nodes: tuple[PhysicalNode, ...] | None = None  # None: not frozen
        self._edges: tuple[tuple[int, int], ...] = ()
        self._fingerprint = ""
        self._estimates_finite = True
        self.root = root
        self.alias_to_table = dict(alias_to_table)
        self.label = label
        self.plan_id = next(PhysicalPlan._ids)

    def __setattr__(self, name: str, value) -> None:
        if name == "root" and getattr(self, "_nodes", None) is not None:
            raise PlanError("cannot replace the root of a frozen plan")
        object.__setattr__(self, name, value)

    # -- freezing ----------------------------------------------------------
    def freeze(self) -> "PhysicalPlan":
        """Compute the plan's facts once and lock its nodes; idempotent.

        The facts are the post-order nodes, the edges, the node count,
        the fingerprint and the "all estimates finite" flag. Returns the
        plan itself.
        """
        if self._nodes is None:
            nodes = self.nodes()
            edges = self.edges()
            self._edges = _shared(tuple(_shared(edge) for edge in edges))
            self._fingerprint = _digest(nodes, edges)
            self._estimates_finite = self.estimates_finite()
            for node in nodes:
                object.__setattr__(node, "_frozen", True)
            self._nodes = tuple(nodes)  # last: marks the plan frozen
        return self

    @property
    def frozen(self) -> bool:
        """Whether :meth:`freeze` has run."""
        return self._nodes is not None

    # -- structure ---------------------------------------------------------
    def nodes(self) -> list[PhysicalNode]:
        """Post-order (bottom-up execution order) list of operators."""
        if self._nodes is not None:
            return list(self._nodes)
        out: list[PhysicalNode] = []

        def visit(node: PhysicalNode) -> None:
            for child in node.children:
                visit(child)
            out.append(node)

        visit(self.root)
        return out

    def node_index(self) -> dict[int, int]:
        """Map ``id(node)`` → position in :meth:`nodes` order."""
        return {id(node): i for i, node in enumerate(self.nodes())}

    def edges(self) -> list[tuple[int, int]]:
        """(child_index, parent_index) pairs in execution order."""
        if self._nodes is not None:
            return list(self._edges)
        nodes = self.nodes()
        index = {id(node): i for i, node in enumerate(nodes)}
        out: list[tuple[int, int]] = []
        for node in nodes:
            for child in node.children:
                out.append((index[id(child)], index[id(node)]))
        return out

    @property
    def num_nodes(self) -> int:
        """Number of operators in the plan."""
        if self._nodes is not None:
            return len(self._nodes)
        return len(self.nodes())

    def fingerprint(self) -> str:
        """Stable digest of the per-node statements, the per-node
        cardinality estimates and the tree edges."""
        if self._nodes is not None:
            return self._fingerprint
        return _digest(self.nodes(), self.edges())

    def estimates_finite(self) -> bool:
        """Whether every node's ``est_rows`` and ``est_bytes`` is finite."""
        if self._nodes is not None:
            return self._estimates_finite
        return all(math.isfinite(node.est_rows) and math.isfinite(node.est_bytes)
                   for node in self.nodes())

    def operator_counts(self) -> dict[str, int]:
        """Histogram of operator names (useful for tests/debugging)."""
        counts: dict[str, int] = {}
        for node in self.nodes():
            counts[node.op_name] = counts.get(node.op_name, 0) + 1
        return counts

    def signature(self) -> str:
        """Stable string identifying the plan's structure and statements."""
        parts = []
        for i, node in enumerate(self.nodes()):
            parts.append(f"{i}:{';'.join(node.statements())}")
        return "|".join(parts)

    def describe(self) -> str:
        """EXPLAIN-style rendering."""
        header = f"PhysicalPlan {self.label or self.plan_id}"
        return header + "\n" + self.root.describe(1)

    def __repr__(self) -> str:
        return f"PhysicalPlan(label={self.label!r}, nodes={self.num_nodes})"
