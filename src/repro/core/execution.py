"""Bucket-parallel execution engine for inference.

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
* **Bucket parallelism** — with ``threads > 1`` the independent
  per-bucket forwards run on a thread pool. numpy releases the GIL
  inside BLAS and the large elementwise sweeps, so buckets genuinely
  overlap on multi-core hosts. Workers write disjoint slices of the
  output array; each worker collates into its own thread-local
  :class:`~repro.nn.arena.ScratchArena`.
* **Arena collation** — inference does not need the training collate's
  Tensor targets or fresh allocations; pads are written into grow-only
  per-thread scratch buffers, so a steady-state request stream performs
  no collation allocations at all.
* **Deadlines** — :meth:`BucketExecutor.predict_log` accepts a
  :class:`~repro.reliability.deadline.Deadline`. The serial path
  checks it cooperatively before every bucket; the threaded path adds
  a watchdog wait over the bucket futures that abandons late work
  (queued buckets are cancelled, running buckets finish into the
  abandoned output array) and raises the typed
  :class:`~repro.errors.DeadlineExceeded` promptly. A hung worker can
  therefore never block the caller past its budget.
* **Prompt error propagation** — a fault in any bucket worker cancels
  every not-yet-started bucket and re-raises on the caller's thread
  immediately; the pool itself stays healthy for subsequent requests.

Every bucket goes through ``model.forward_inference``, so fault hooks
that replace it (the test suite's ``FaultInjector``, in
``tests/faults.py``) reach every predict path. It never builds an autograd graph; the
unbucketed autograd forward it is checked against lives in the test
suite (``tests/oracles.py``).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np

from repro import obs
from repro.core.raal import RAALBatch
from repro.errors import DeadlineExceeded, PredictionError
from repro.nn.arena import ScratchArena, thread_local_arena
from repro.nn.inference import inference_weights

__all__ = ["BucketExecutor", "collate_inference", "group_by_plan",
           "resolve_threads"]


def resolve_threads(threads: int | None) -> int:
    """Effective worker count: ``None``/``0`` means one per CPU core."""
    if threads is None or threads <= 0:
        return os.cpu_count() or 1
    return int(threads)


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
    threads:
        Bucket-level parallelism. ``1`` (default) stays single-threaded
        on the caller's thread; ``None``/``0`` means one worker per CPU
        core. The pool is created lazily and kept for the executor's
        lifetime.
    """

    def __init__(self, model, batch_size: int,
                 threads: int | None = 1) -> None:
        self.model = model
        self.batch_size = int(batch_size)
        self.threads = resolve_threads(threads)
        self._pool: ThreadPoolExecutor | None = None

    # -- lifecycle -----------------------------------------------------------
    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.threads,
                thread_name_prefix="repro-bucket")
        return self._pool

    def close(self) -> None:
        """Shut down the worker pool (idempotent, safe to call twice).

        Queued-but-unstarted work is cancelled so an executor poisoned
        by abandoned (deadline-expired) buckets still closes promptly;
        buckets already running are allowed to finish. A closed
        executor remains usable — the next predict call lazily builds a
        fresh pool.
        """
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

        Serial path (one thread, or one bucket without a deadline):
        cooperative — the deadline is checked before each bucket
        (``run`` itself re-checks at bucket start, so the threaded
        workers share the same guard).

        Threaded path: the buckets are submitted to the pool and the
        caller becomes a *watchdog*: it waits on the futures with the
        deadline's remaining budget as timeout. On expiry, queued
        buckets are cancelled, running ones are abandoned (they finish
        writing into the output array nobody will read — disjoint
        slices, so this is safe), and :class:`DeadlineExceeded` is
        raised promptly. On a worker fault, pending buckets are
        cancelled and the fault re-raises immediately — the pool is
        never poisoned and the caller never deadlocks on its siblings.
        A deadline forces the watchdog even for a single bucket: the
        serial path can only cancel *between* buckets, so a lone hung
        bucket would overrun the budget by its full runtime.
        """
        try:
            if self.threads > 1 and (len(slices) > 1 or deadline is not None):
                self._watch_buckets(slices, run, deadline)
            else:
                for idx in slices:
                    if deadline is not None:
                        deadline.check("between buckets")
                    run(idx)
            if deadline is not None:
                deadline.check("after final bucket")
        except DeadlineExceeded:
            obs.inc("predict.deadline_exceeded_total",
                    help="Predict calls abandoned past their deadline")
            raise

    def _watch_buckets(self, slices: list[np.ndarray], run, deadline) -> None:
        pool = self._ensure_pool()
        pending = set(pool.submit(run, idx) for idx in slices)
        try:
            while pending:
                timeout = None
                if deadline is not None:
                    timeout = max(deadline.remaining(), 0.0)
                done, pending = wait(pending, timeout=timeout,
                                     return_when=FIRST_COMPLETED)
                for future in done:
                    exc = future.exception()
                    if exc is not None:
                        raise exc
                if deadline is not None and pending and deadline.expired():
                    raise DeadlineExceeded(
                        f"{len(pending)} of {len(slices)} buckets abandoned "
                        f"past the deadline "
                        f"(overrun {-deadline.remaining() * 1e3:.1f}ms)")
        except BaseException:
            for future in pending:
                future.cancel()
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
            # Each pair belongs to one plan, and each plan to one
            # bucket: concurrent writes are disjoint.
            preds[pairs] = block[slots]

        self._run_buckets(slices, run, deadline)
        return preds, len(slices)
