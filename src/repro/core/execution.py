"""Precision-tiered, bucket-parallel execution engine for inference.

:class:`BucketExecutor` owns the prediction hot loop that used to live
inline in :meth:`Trainer.predict_log`:

* **Length bucketing** — plans are stable-sorted by node count before
  batching, so a batch of short plans is never padded to the longest
  plan in the workload. Same order and batch composition as before, so
  the default configuration is bit-identical to the pre-engine path.
* **Precision tiers** — the forward runs over an
  :class:`~repro.nn.precision.InferenceWeights` bundle (f64 / f32 /
  int8); collation pads directly into the execution dtype.
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
* **Factored grids** — :meth:`predict_log_grid` evaluates a
  ``plans × profiles`` grid through
  :func:`~repro.nn.inference.raal_grid_inference`, running the
  plan-side network once per *plan* instead of once per *pair*.
* **Deadlines** — both predict paths accept a
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

This is the only inference path: it never builds an autograd graph.
The unbucketed autograd forward it is checked against lives in the
test suite (``tests/oracles.py``).
"""

from __future__ import annotations

import os
from concurrent.futures import FIRST_COMPLETED, ThreadPoolExecutor, wait

import numpy as np

from repro import obs
from repro.core.raal import RAALBatch
from repro.errors import DeadlineExceeded, PredictionError
from repro.nn.arena import ScratchArena, thread_local_arena
from repro.nn.precision import (
    DEFAULT_PRECISION,
    InferenceWeights,
    inference_weights,
)
from repro.nn.inference import raal_grid_inference

__all__ = ["BucketExecutor", "collate_inference", "resolve_threads"]


def resolve_threads(threads: int | None) -> int:
    """Effective worker count: ``None``/``0`` means one per CPU core."""
    if threads is None or threads <= 0:
        return os.cpu_count() or 1
    return int(threads)


def collate_inference(encoded: list, dtype: np.dtype,
                      arena: ScratchArena | None = None) -> RAALBatch:
    """Zero-pad encoded plans into an inference-only :class:`RAALBatch`.

    The one padding implementation: the training
    :func:`repro.core.trainer.collate` calls it at float64 and adds
    targets. Casts directly into the execution ``dtype`` and — when
    given an ``arena`` — writes into reusable scratch buffers instead
    of fresh allocations. Arena-backed batches are only valid until the
    same thread's next collate call.
    """
    if not encoded:
        raise PredictionError("cannot collate an empty batch")
    n = max(e.num_nodes for e in encoded)
    batch = len(encoded)
    node_dim = encoded[0].node_features.shape[1]

    def zeros(key, shape, dt):
        if arena is None:
            return np.zeros(shape, dtype=dt)
        return arena.zeros(key, shape, dt)

    def empty(key, shape, dt):
        if arena is None:
            return np.empty(shape, dtype=dt)
        return arena.empty(key, shape, dt)

    feats = zeros("collate.feats", (batch, n, node_dim), dtype)
    child = zeros("collate.child", (batch, n, n), np.bool_)
    mask = zeros("collate.mask", (batch, n), np.bool_)
    resources = empty("collate.resources", (batch, len(encoded[0].resources)), dtype)
    extras = empty("collate.extras", (batch, len(encoded[0].extras)), dtype)
    for i, e in enumerate(encoded):
        k = e.num_nodes
        feats[i, :k] = e.node_features
        child[i, :k, :k] = e.child_mask
        mask[i, :k] = True
        resources[i] = e.resources
        extras[i] = e.extras
    return RAALBatch(node_features=feats, child_mask=child, node_mask=mask,
                     resources=resources, extras=extras)


class BucketExecutor:
    """Runs length-bucketed model forwards at a fixed precision tier.

    Parameters
    ----------
    model:
        A RAAL-family model (must expose the staged inference kernels).
    batch_size:
        Max plans per bucket (usually ``TrainerConfig.batch_size``).
    precision:
        ``"f64"`` (default, bit-identical to the legacy path), ``"f32"``,
        or ``"int8"``.
    threads:
        Bucket-level parallelism. ``1`` (default) stays single-threaded
        on the caller's thread; ``None``/``0`` means one worker per CPU
        core. The pool is created lazily and kept for the executor's
        lifetime.
    """

    def __init__(self, model, batch_size: int,
                 precision: str = DEFAULT_PRECISION,
                 threads: int | None = 1) -> None:
        self.model = model
        self.batch_size = int(batch_size)
        self.precision = precision
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
    def weights(self) -> InferenceWeights:
        """The current weight bundle (cached per model version)."""
        return inference_weights(self.model, self.precision)

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
        """Log-space predictions for encoded plans.

        Returns ``(predictions, n_batches)`` with predictions in input
        order. ``deadline`` bounds the call: expiry raises
        :class:`~repro.errors.DeadlineExceeded` instead of returning a
        late answer.
        """
        if not encoded:
            return np.zeros(0), 0
        if deadline is not None:
            deadline.check("before predict")
        self.model.eval()
        weights = self.weights()
        slices = self._slices(encoded)
        preds = np.empty(len(encoded))

        def run(idx: np.ndarray) -> None:
            if deadline is not None:
                deadline.check("at bucket start")
            batch = collate_inference([encoded[i] for i in idx],
                                      weights.dtype,
                                      arena=thread_local_arena())
            # Disjoint index sets per bucket: concurrent writes are safe.
            preds[idx] = self.model.forward_inference(batch, weights)

        self._run_buckets(slices, run, deadline)
        return preds, len(slices)

    def predict_log_grid(self, encoded_plans: list,
                         profile_features: np.ndarray,
                         deadline=None) -> tuple[np.ndarray, int]:
        """Factored log-space grid: ``(profiles, plans)`` predictions.

        ``encoded_plans`` holds each distinct plan **once** (any
        resource vector — it is ignored); ``profile_features`` is the
        ``(P, R)`` profile matrix. Plans are length-bucketed and each
        bucket runs the plan-side network once, then scores every
        profile in a handful of flat GEMMs
        (:func:`~repro.nn.inference.raal_grid_inference`). Returns
        ``(matrix, n_batches)``.
        """
        n_profiles = profile_features.shape[0]
        if not encoded_plans:
            return np.zeros((n_profiles, 0)), 0
        if deadline is not None:
            deadline.check("before grid predict")
        self.model.eval()
        weights = self.weights()
        out = np.empty((n_profiles, len(encoded_plans)))
        profiles = np.ascontiguousarray(profile_features, dtype=weights.dtype)
        slices = self._slices(encoded_plans)

        def run(idx: np.ndarray) -> None:
            if deadline is not None:
                deadline.check("at bucket start")
            batch = collate_inference(
                [encoded_plans[i] for i in idx], weights.dtype,
                arena=thread_local_arena())
            out[:, idx] = raal_grid_inference(
                weights, batch.node_features, batch.child_mask,
                batch.node_mask, batch.extras, profiles)

        self._run_buckets(slices, run, deadline)
        return out, len(slices)
