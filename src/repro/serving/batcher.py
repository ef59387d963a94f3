"""Micro-batching request queue: coalesce concurrent predicts.

A prediction service receives many small requests — one query's
candidate plans under one resource profile — from many concurrent
clients. Scoring each request alone wastes the engine: every call pays
the guard/telemetry overhead and runs small, padding-heavy GEMMs.
:class:`MicroBatcher` turns that stream into fused forwards without a
thread of its own: **the callers run the batches**.

* a request submitted while no batch runs is scored at once on its
  caller's thread, as a batch of one — it never waits for company and
  never hands off to another thread;
* requests submitted while a batch runs queue up; when that batch
  ends, one of the queued callers takes the whole queue (its own item
  included) and runs it as the next batch, so fusion grows with load
  instead of being bought with latency;
* each fused batch runs through one ``execute`` call — which feeds the
  guarded predictor's length-bucketed
  :class:`~repro.core.execution.BucketExecutor` as a single forward —
  and the result vector is scattered back to the waiting callers.

At most one batch runs at a time per batcher. Deadlines are honoured
per request: an expired request is answered with
:class:`~repro.errors.DeadlineExceeded` without occupying the batch,
and a fused batch executes under the *tightest* member deadline —
under the guarded chain an expiry degrades the whole batch to the
analytic fallback (cheap and well within any budget) rather than
returning late learned answers. Admission-control sheds surface per
the guard's ``shed_mode`` exactly as they do for direct calls: the
batch degrades (``fallback``) or every member sees
:class:`~repro.errors.Overloaded` (``reject``).
"""

from __future__ import annotations

import threading
from typing import Callable

from repro import obs
from repro.errors import PredictionError
from repro.reliability.deadline import Deadline

__all__ = ["BatchItem", "MicroBatcher"]


class BatchItem:
    """One caller's slot in a fused batch (a tiny one-shot future)."""

    __slots__ = ("pairs", "deadline", "done", "result", "offset",
                 "member", "batch_size", "error")

    def __init__(self, pairs, deadline: Deadline | None) -> None:
        self.pairs = pairs
        self.deadline = deadline
        self.done = False
        self.result = None          # ExplainedPredictions of the fused batch
        self.offset = 0             # this caller's slice start in the batch
        self.member = 0             # this caller's position among members
        self.batch_size = 0         # fused pairs (for telemetry/responses)
        self.error: BaseException | None = None

    def resolve(self, result, offset: int, member: int,
                batch_size: int) -> None:
        self.result = result
        self.offset = offset
        self.member = member
        self.batch_size = batch_size
        self.done = True

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.done = True


class MicroBatcher:
    """Caller-runs request coalescer in front of one serving model.

    Parameters
    ----------
    execute:
        ``execute(pairs, deadline, sizes)`` scoring a fused pair list
        (``sizes``: its member requests' pair counts) in one call —
        typically a closure over the model shard's current
        :class:`~repro.reliability.guard.GuardedCostPredictor` so the
        whole batch is served by exactly one model version.
    """

    def __init__(self, execute: Callable) -> None:
        self.execute = execute
        self._cv = threading.Condition(threading.Lock())
        self._queue: list[BatchItem] = []
        self._running = False
        self._closed = False
        # Cumulative accounting (also exported as serve.batch.* metrics).
        self.batches = 0
        self.batched_pairs = 0
        self.coalesced_requests = 0

    def close(self) -> None:
        """Fail queued requests with a typed error and give a running
        batch up to 5 s to finish; later submits run inline."""
        with self._cv:
            self._closed = True
            pending, self._queue = self._queue, []
            for item in pending:
                item.fail(PredictionError("batcher closed while request queued"))
            self._cv.notify_all()
            self._cv.wait_for(lambda: not self._running, 5.0)

    # -- submission --------------------------------------------------------
    def submit(self, pairs, deadline: Deadline | None = None,
               timeout: float | None = 30.0) -> BatchItem:
        """Score ``pairs``, coalescing with concurrent submissions.

        Returns the resolved :class:`BatchItem`; raises the batch's
        error when the fused call failed (``Overloaded`` under
        ``shed_mode="reject"``, :class:`PredictionError` when the
        guard's whole chain failed).
        """
        if not pairs:
            raise PredictionError("cannot submit an empty pair list")
        if deadline is not None and deadline.expired():
            # Fail fast without occupying a batch slot: queueing work
            # that is already late only delays the requests that can
            # still make their budget.
            deadline.check("at batch submit")
        item = BatchItem(pairs, deadline)
        if self._closed:
            self._run_batch([item])
        else:
            batch = self._lead_or_wait(item, timeout)
            if batch is not None:
                try:
                    self._run_batch(batch)
                finally:
                    with self._cv:
                        for other in batch:
                            if not other.done:
                                other.fail(PredictionError(
                                    "fused batch ended without an answer"))
                        self._running = False
                        self._cv.notify_all()
        if item.error is not None:
            raise item.error
        return item

    def _lead_or_wait(self, item: BatchItem,
                      timeout: float | None) -> list[BatchItem] | None:
        """Queue ``item`` and wait until it is answered or no batch runs.

        In the latter case this caller leads the next batch: the whole
        queue (``item`` included) is returned for it to run.
        """
        with self._cv:
            if self._closed:
                raise PredictionError("batcher is closed")
            self._queue.append(item)
            if not self._cv.wait_for(
                    lambda: item.done or not self._running, timeout):
                if item in self._queue:
                    self._queue.remove(item)
                raise PredictionError(
                    f"batched request timed out after {timeout}s "
                    f"(batch stalled?)")
            if item.done:
                return None
            self._running = True
            batch, self._queue = self._queue, []
            return batch

    def _run_batch(self, batch: list[BatchItem]) -> None:
        """Execute one fused batch and scatter the results."""
        fused: list = []
        offsets: list[int] = []
        deadline: Deadline | None = None
        for item in batch:
            offsets.append(len(fused))
            fused.extend(item.pairs)
            if item.deadline is not None and (
                    deadline is None
                    or item.deadline.expires_at < deadline.expires_at):
                deadline = item.deadline
        try:
            result = self.execute(fused, deadline,
                                  [len(item.pairs) for item in batch])
        except BaseException as exc:  # every member sees the failure
            for item in batch:
                item.fail(exc)
            return
        self.batches += 1
        self.batched_pairs += len(fused)
        self.coalesced_requests += len(batch)
        obs.inc("serve.batch.batches_total",
                help="Fused micro-batches executed")
        obs.inc("serve.batch.requests_total", len(batch),
                help="Requests served through fused micro-batches")
        obs.observe("serve.batch.pairs", float(len(fused)),
                    help="Pairs per fused micro-batch")
        for member, (item, offset) in enumerate(zip(batch, offsets)):
            item.resolve(result, offset, member, len(fused))

    def snapshot(self) -> dict:
        """Point-in-time accounting for health endpoints and tests."""
        with self._cv:
            queued = len(self._queue)
        return {
            "queued": queued,
            "batches": self.batches,
            "batched_pairs": self.batched_pairs,
            "coalesced_requests": self.coalesced_requests,
        }
