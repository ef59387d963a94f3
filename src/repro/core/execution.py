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

Every bucket goes through ``model.forward_inference``, so fault hooks
that replace it (the test suite's ``FaultInjector``, in
``tests/faults.py``) reach every predict path. It never builds an autograd graph; the
unbucketed autograd forward it is checked against lives in the test
suite (``tests/oracles.py``).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeout

import numpy as np

from repro import obs
from repro.core.raal import RAALBatch
from repro.errors import DeadlineExceeded, PredictionError
from repro.nn.arena import ScratchArena, thread_local_arena
from repro.nn.inference import inference_weights

__all__ = ["BucketExecutor", "collate_inference", "group_by_plan"]


def collate_inference(encoded: list,
                      arena: ScratchArena | None = None,
                      profiles: tuple[np.ndarray, np.ndarray] | None = None,
                      ) -> RAALBatch:
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


class BucketExecutor:
    """Runs length-bucketed model forwards.

    Parameters
    ----------
    model:
        A RAAL-family model (must expose the staged inference kernels).
    batch_size:
        Max distinct plans per bucket (usually
        ``TrainerConfig.batch_size``); each carries all its profiles.

    A call without a deadline runs on the caller's thread. A call with
    one runs on the executor's own worker pool (one worker per CPU
    core, built on the first such call and kept for the executor's
    lifetime), so a hung model behind one executor cannot starve
    another executor's callers.
    """

    def __init__(self, model, batch_size: int) -> None:
        self.model = model
        self.batch_size = int(batch_size)
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

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
        pool.
        """
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    def __enter__(self) -> "BucketExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- execution -----------------------------------------------------------
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
        block. Returns ``(predictions, n_batches)`` with predictions in
        input order. ``deadline`` bounds the call: expiry raises
        :class:`~repro.errors.DeadlineExceeded` instead of returning a
        late answer.
        """
        if not encoded:
            return np.zeros(0), 0
        if deadline is not None:
            deadline.check("before predict")
        self.model.eval()
        weights = inference_weights(self.model)
        groups = group_by_plan(encoded)
        plans = [encoded[members[0]] for members in groups]
        slices = self._slices(plans)
        preds = np.empty(len(encoded))

        def run(idx: np.ndarray) -> None:
            if deadline is not None:
                deadline.check("at bucket start")
            bucket = [groups[g] for g in idx]
            counts = np.array([len(members) for members in bucket])
            slots = np.arange(counts.max()) < counts[:, None]
            # The bucket's pairs, plan by plan: the row-major order of
            # the filled slots.
            pairs = [i for members in bucket for i in members]
            rows = np.array([encoded[i].resources for i in pairs],
                            dtype=np.float64)
            batch = collate_inference(
                [plans[g] for g in idx],
                arena=thread_local_arena(), profiles=(slots, rows))
            block = self.model.forward_inference(batch, weights)
            preds[pairs] = block[slots]

        self._run_buckets(slices, run, deadline)
        return preds, len(slices)
