"""Bucketed execution engine for inference.

:class:`BucketExecutor` owns the one inference kernel. Every predict
path — a guarded request's learned stage, the deploy shadow,
``CostPredictor.predict_grid`` and evaluation — runs through
:meth:`BucketExecutor.predict_log`:

* **One forward per plan** — encoded pairs are grouped by distinct
  plan (the encoder shares one ``node_features`` array per plan). The
  plan side of the network (embedding → LSTM/CNN → node attention)
  runs once per distinct plan, and the resource side scores each
  plan's own profiles over a padded ``(B, P_max, R)`` profile block.
  A ``plans × profiles`` grid therefore costs one plan-side pass per
  plan, and a batch of distinct plans costs what it always did. At f64
  the answers agree with a pairwise (one row per pair) forward to a
  relative 1e-12 — the GEMM groupings differ, so not bit for bit.
* **One plan-side pass per plan per served model version** — served
  weights are immutable (:func:`~repro.nn.inference.freeze_weights`),
  so a plan's plan-side output ``(hidden[:k], plan_vec)`` cannot go
  stale: a :class:`PlanSideMemo` keeps it for the executor's lifetime,
  keyed by the identity of the encoder's shared plan arrays, and a
  bucket runs the plan side only on the plans that miss. The memo is
  dropped when the weight arrays are rebound and in :meth:`close`. A
  writable model (training, evaluation, a direct guard) keeps no memo:
  each call already runs one plan-side pass per distinct plan, so an
  in-place weight edit reaches the next call.
* **Length bucketing** — distinct plans are stable-sorted by node
  count before batching, so a batch of short plans is never padded to
  the longest plan in the workload.
* **One weight bundle per call** — every bucket's forward reads the
  same :class:`~repro.nn.inference.InferenceWeights`, the model's live
  float64 parameter arrays.
* **Arena collation** — inference does not need the training collate's
  Tensor targets or fresh allocations; pads are written into grow-only
  per-thread scratch buffers, so a steady-state request stream performs
  no collation allocations at all.
* **One deadline rule** — a call without a
  :class:`~repro.reliability.deadline.Deadline` runs its buckets on the
  caller's thread. A call with one runs them as one task on the
  executor's worker pool while the caller waits at most the remaining
  budget: on expiry the caller raises the typed
  :class:`~repro.errors.DeadlineExceeded` at once, and the abandoned
  task stops at its next bucket boundary. A hung forward therefore
  never blocks a deadline-carrying caller past its budget. A fault in
  the task re-raises on the caller's thread, and the pool stays
  healthy for later calls.

Every bucket goes through ``model.forward_inference`` (with its
precomputed plan side), so fault hooks that replace it (the test
suite's ``FaultInjector``, in ``tests/faults.py``) reach every predict
path, memo hits included. It never builds an autograd graph; the
unbucketed autograd forward it is checked against lives in the test
suite (``tests/oracles.py``).
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np

from repro import obs
from repro.core.raal import RAALBatch
from repro.errors import DeadlineExceeded, PredictionError
from repro.nn.arena import ScratchArena, thread_local_arena
from repro.nn.inference import (inference_weights, is_immutable,
                                plan_side_forward)

__all__ = ["BucketExecutor", "PlanSideMemo", "collate_inference",
           "group_by_plan"]


def collate_inference(encoded: list,
                      arena: ScratchArena | None = None,
                      profiles: tuple[np.ndarray, np.ndarray] | None = None,
                      plan_arrays: bool = True) -> RAALBatch:
    """Zero-pad encoded plans into an inference-only :class:`RAALBatch`.

    The one padding implementation: the training
    :func:`repro.core.trainer.collate` calls it and adds targets. Pads
    into float64 and — when given an ``arena`` — writes into reusable
    scratch buffers instead of fresh allocations. Arena-backed batches
    are only valid until the same thread's next collate call.

    Resources come from each encoded plan, ``(B, R)``, unless
    ``profiles`` gives ``(slots, rows)``: a boolean ``(B, P_max)`` mask
    of each plan's filled profile slots and the ``(slots.sum(), R)``
    resource rows that fill them in row-major order. The result is then
    a zero-padded ``(B, P_max, R)`` profile block.

    ``plan_arrays=False`` skips ``node_features`` and ``child_mask``
    (both ``None``), for a batch whose plan side is already computed.
    """
    if not encoded:
        raise PredictionError("cannot collate an empty batch")
    n = max(e.num_nodes for e in encoded)
    batch = len(encoded)
    node_dim = encoded[0].node_features.shape[1]
    resource_dim = len(encoded[0].resources)

    def zeros(key, shape, dt=np.float64):
        if arena is None:
            return np.zeros(shape, dtype=dt)
        return arena.zeros(key, shape, dt)

    def empty(key, shape):
        if arena is None:
            return np.empty(shape, dtype=np.float64)
        return arena.empty(key, shape, np.float64)

    feats = child = None
    if plan_arrays:
        feats = zeros("collate.feats", (batch, n, node_dim))
        child = zeros("collate.child", (batch, n, n), np.bool_)
    mask = zeros("collate.mask", (batch, n), np.bool_)
    extras = empty("collate.extras", (batch, len(encoded[0].extras)))
    if profiles is None:
        resources = empty("collate.resources", (batch, resource_dim))
    else:
        slots, rows = profiles
        resources = zeros("collate.profiles",
                          (batch, slots.shape[1], resource_dim))
        resources[slots] = rows
    for i, e in enumerate(encoded):
        k = e.num_nodes
        if plan_arrays:
            feats[i, :k] = e.node_features
            child[i, :k, :k] = e.child_mask
        mask[i, :k] = True
        extras[i] = e.extras
        if profiles is None:
            resources[i] = e.resources
    return RAALBatch(node_features=feats, child_mask=child, node_mask=mask,
                     resources=resources, extras=extras)


def group_by_plan(encoded: list) -> list[list[int]]:
    """Pair indices per distinct plan, in order of first appearance.

    Pairs share a plan when they share its encoded arrays — the
    encoder hands every pair of one plan the same ``node_features``,
    ``child_mask`` and ``extras``. Pairs encoded separately never
    share, so each becomes its own single-profile group.
    """
    slot: dict[tuple[int, int, int], int] = {}
    groups: list[list[int]] = []
    for i, e in enumerate(encoded):
        key = (id(e.node_features), id(e.child_mask), id(e.extras))
        g = slot.setdefault(key, len(groups))
        if g == len(groups):
            groups.append([])
        groups[g].append(i)
    return groups


class PlanSideMemo:
    """Bounded LRU of plans' plan-side outputs ``(hidden[:k], plan_vec)``.

    Keyed by the identity of a plan's shared ``node_features`` and
    ``child_mask`` arrays (as :func:`group_by_plan`). Each entry holds
    references to both arrays, so their ids cannot be reused while it
    lives. Only plans whose arrays are read-only (the encoder's cached
    ones) are stored; at ``capacity`` 0 nothing is. Lock-protected:
    concurrent calls, and a deadline-abandoned task that finishes
    late, share one memo.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = int(capacity)
        self._entries: OrderedDict = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, plans: list) -> list:
        """``(hidden[:k], plan_vec)`` per plan, ``None`` where it misses."""
        found = []
        with self._lock:
            for e in plans:
                key = (id(e.node_features), id(e.child_mask))
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    entry = entry[2:]
                found.append(entry)
        return found

    def store(self, plans: list, hidden: np.ndarray,
              plan_vec: np.ndarray) -> None:
        """Keep row ``i`` of a plan-side pass over ``plans``."""
        if not self.capacity:
            return
        with self._lock:
            for i, e in enumerate(plans):
                nf, cm = e.node_features, e.child_mask
                if nf.flags.writeable or cm.flags.writeable:
                    continue
                self._entries[id(nf), id(cm)] = (
                    nf, cm, hidden[i, : e.num_nodes].copy(),
                    plan_vec[i].copy())
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)


class BucketExecutor:
    """Runs length-bucketed model forwards.

    Parameters
    ----------
    model:
        A RAAL-family model (must expose the staged inference kernels).
    batch_size:
        Max distinct plans per bucket (usually
        ``TrainerConfig.batch_size``); each carries all its profiles.
    memo_size:
        Capacity of the plan-side memo (:class:`PlanSideMemo`); a
        predictor passes its encoder's ``cache_size``, the only source
        of plan arrays shared across calls. ``0`` keeps no entry.

    A call without a deadline runs on the caller's thread. A call with
    one runs on the executor's own worker pool (one worker per CPU
    core, built on the first such call and kept for the executor's
    lifetime), so a hung model behind one executor cannot starve
    another executor's callers.
    """

    def __init__(self, model, batch_size: int, memo_size: int = 0) -> None:
        self.model = model
        self.batch_size = int(batch_size)
        self.memo_size = int(memo_size)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()
        # The lifetime memo and the frozen weight arrays it was filled
        # with (held, so their ids cannot be reused).
        self._memo = PlanSideMemo(self.memo_size)
        self._memo_weights: tuple = ()
        self._memo_lock = threading.Lock()

    # -- lifecycle -----------------------------------------------------------
    def _submit(self, fn):
        """Run ``fn`` on the worker pool, building the pool on first use."""
        with self._pool_lock:
            if self._pool is None:
                self._pool = ThreadPoolExecutor(
                    max_workers=os.cpu_count() or 1,
                    thread_name_prefix="repro-bucket")
            return self._pool.submit(fn)

    def close(self) -> None:
        """Shut down the worker pool (idempotent, safe to call twice).

        Queued-but-unstarted work is cancelled so an executor poisoned
        by abandoned (deadline-expired) calls still closes promptly;
        a call already running is allowed to finish. A closed executor
        remains usable — the next deadline-carrying call builds a fresh
        pool. The plan-side memo is dropped.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)
        with self._memo_lock:
            self._memo, self._memo_weights = PlanSideMemo(self.memo_size), ()

    def __enter__(self) -> "BucketExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------
    def _memo_for(self, weights) -> PlanSideMemo:
        """The memo valid for ``weights``.

        Immutable weights get the executor's lifetime memo, replaced by
        a fresh one when the arrays' identity changes (a call still
        running on the old weights keeps filling the old one). Writable
        weights get an empty one that keeps nothing: within one call a
        distinct plan sits in one bucket, so a per-call memo never hits.
        """
        arrays = weights.arrays()
        if not all(is_immutable(a) for a in arrays):
            return PlanSideMemo(0)
        with self._memo_lock:
            if (len(arrays) != len(self._memo_weights)
                    or any(a is not b
                           for a, b in zip(arrays, self._memo_weights))):
                self._memo = PlanSideMemo(self.memo_size)
                self._memo_weights = arrays
            return self._memo

    def _slices(self, encoded: list) -> list[np.ndarray]:
        """Input indices per bucket: stable-sorted by node count."""
        order = np.argsort([e.num_nodes for e in encoded], kind="stable")
        return [order[lo : lo + self.batch_size]
                for lo in range(0, len(order), self.batch_size)]

    def _run_buckets(self, slices: list[np.ndarray], run, deadline) -> None:
        """Execute ``run`` over every bucket, honouring the deadline.

        Without a deadline the buckets run on the caller's thread. With
        one, the whole bucket loop is one pool task and the caller
        waits for it at most ``deadline.remaining()``. On expiry the
        task is cancelled if it has not started, or abandoned if it
        has: ``run`` checks the deadline at every bucket start, so it
        stops at the next bucket boundary, and its writes land in an
        output array nobody reads. A fault in the task re-raises here.
        """
        def run_all() -> None:
            for idx in slices:
                run(idx)

        if deadline is None:
            run_all()
            return
        try:
            future = self._submit(obs.bind(run_all))
            try:
                future.result(timeout=max(deadline.remaining(), 0.0))
            except FutureTimeout:
                future.cancel()
                raise DeadlineExceeded(
                    f"forward of {len(slices)} buckets abandoned past the "
                    f"deadline (overrun {-deadline.remaining() * 1e3:.1f}ms)"
                ) from None
            deadline.check("after final bucket")
        except DeadlineExceeded:
            obs.inc("predict.deadline_exceeded_total",
                    help="Predict calls abandoned past their deadline")
            raise

    def predict_log(self, encoded: list,
                    deadline=None) -> tuple[np.ndarray, int]:
        """Log-space predictions for encoded (plan, resources) pairs.

        Pairs are grouped by distinct plan (:func:`group_by_plan`); the
        distinct plans are length-bucketed, and each bucket runs one
        ``model.forward_inference`` over its plans' padded profile
        block, with the plan side computed only for the plans the
        memo misses. Returns ``(predictions, n_batches)`` with
        predictions in input order. ``deadline`` bounds the call:
        expiry raises :class:`~repro.errors.DeadlineExceeded` instead
        of returning a late answer.
        """
        if not encoded:
            return np.zeros(0), 0
        if deadline is not None:
            deadline.check("before predict")
        if self.model.training:
            # The kernels ignore the mode (eval-mode Dropout is erased
            # from the bundle); the recursive switch costs ~50 µs, so
            # it runs only when the model was left training.
            self.model.eval()
        weights = inference_weights(self.model)
        memo = self._memo_for(weights)
        groups = group_by_plan(encoded)
        plans = [encoded[members[0]] for members in groups]
        slices = self._slices(plans)
        preds = np.empty(len(encoded))

        def run(idx: np.ndarray) -> None:
            if deadline is not None:
                deadline.check("at bucket start")
            bucket = [groups[g] for g in idx]
            bucket_plans = [plans[g] for g in idx]
            found = memo.lookup(bucket_plans)
            miss = [j for j, entry in enumerate(found) if entry is None]
            obs.inc("forward.plan_side.hits_total", len(found) - len(miss),
                    help="Distinct plans served from the plan-side memo")
            obs.inc("forward.plan_side.misses_total", len(miss),
                    help="Distinct plans whose plan side was computed")
            counts = np.array([len(pairs) for pairs in bucket])
            slots = np.arange(counts.max()) < counts[:, None]
            # The bucket's pairs, plan by plan: the row-major order of
            # the filled slots.
            pairs = [i for group in bucket for i in group]
            rows = np.array([encoded[i].resources for i in pairs],
                            dtype=np.float64)
            all_miss = len(miss) == len(bucket_plans)
            batch = collate_inference(
                bucket_plans, arena=thread_local_arena(), profiles=(slots, rows),
                plan_arrays=all_miss)
            if all_miss:
                plan_side = plan_side_forward(
                    weights, batch.node_features, batch.child_mask,
                    batch.node_mask)
                memo.store(bucket_plans, *plan_side)
            else:
                plan_side = self._assemble(weights, memo, bucket_plans, found,
                                           miss, batch.node_mask.shape[1])
            block = self.model.forward_inference(batch, weights,
                                                 plan_side=plan_side)
            preds[pairs] = block[slots]

        self._run_buckets(slices, run, deadline)
        return preds, len(slices)

    @staticmethod
    def _assemble(weights, memo: PlanSideMemo, plans: list, found: list,
                  miss: list[int], n: int) -> tuple[np.ndarray, np.ndarray]:
        """A bucket's ``(hidden, plan_vec)``, padded to ``n`` nodes, from
        its memo hits plus one plan-side pass over its misses."""
        if miss:
            missed = [plans[j] for j in miss]
            fresh = collate_inference(missed)
            hidden, plan_vec = plan_side_forward(
                weights, fresh.node_features, fresh.child_mask,
                fresh.node_mask)
            memo.store(missed, hidden, plan_vec)
            for row, j in enumerate(miss):
                found[j] = (hidden[row, : plans[j].num_nodes], plan_vec[row])
        width = found[0][1].shape[0]
        hidden = np.zeros((len(plans), n, width))
        plan_vec = np.empty((len(plans), width))
        for j, (h, v) in enumerate(found):
            hidden[j, : h.shape[0]] = h
            plan_vec[j] = v
        return hidden, plan_vec
