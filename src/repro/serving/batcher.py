"""Micro-batching request queue: coalesce concurrent predicts.

A prediction service receives many small requests — one query's
candidate plans under one resource profile — from many concurrent
clients. Scoring each request alone wastes the engine: every call pays
the guard/telemetry overhead and runs small, padding-heavy GEMMs.
:class:`MicroBatcher` turns that stream into fused forwards, and it is
**work-conserving**: the dispatcher never idles while work is queued.

* a request submitted while the dispatcher is idle is dispatched at
  once, as a batch of one — it never waits for company;
* requests submitted while a batch runs queue up, and the next batch
  takes the whole queue, so fusion grows with load instead of being
  bought with latency;
* each fused batch runs through one ``execute`` call — which feeds the
  guarded predictor's length-bucketed
  :class:`~repro.core.execution.BucketExecutor` as a single forward —
  and the result vector is scattered back to the waiting callers.

Deadlines are honoured per request: an expired request is answered
with :class:`~repro.errors.DeadlineExceeded` without occupying the
batch, and a fused batch executes under the *tightest* member deadline
— under the guarded chain an expiry degrades the whole batch to the
analytic fallback (cheap and well within any budget) rather than
returning late learned answers. Admission-control sheds surface per
the guard's ``shed_mode`` exactly as they do for direct calls: the
batch degrades (``fallback``) or every member sees
:class:`~repro.errors.Overloaded` (``reject``).

With ``batching=False`` every request is scored on its caller's thread
— the comparison arm of the serving benchmark and the right mode for
single-client deployments.
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

    __slots__ = ("pairs", "deadline", "event", "result", "offset",
                 "member", "batch_size", "error")

    def __init__(self, pairs, deadline: Deadline | None) -> None:
        self.pairs = pairs
        self.deadline = deadline
        self.event = threading.Event()
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
        self.event.set()

    def fail(self, error: BaseException) -> None:
        self.error = error
        self.event.set()


class MicroBatcher:
    """Work-conserving request coalescer in front of one serving model.

    Parameters
    ----------
    execute:
        ``execute(pairs, deadline, sizes)`` scoring a fused pair list
        (``sizes``: its member requests' pair counts) in one call —
        typically a closure over the model shard's current
        :class:`~repro.reliability.guard.GuardedCostPredictor` so the
        whole batch is served by exactly one model version.
    batching:
        ``False`` disables coalescing: submits execute inline on the
        caller's thread.
    name:
        Telemetry label (``serve.batch.*`` metrics are shared; the
        ``shard`` annotation distinguishes shards).
    """

    def __init__(self, execute: Callable, batching: bool = True,
                 name: str = "default") -> None:
        self.execute = execute
        self.enabled = bool(batching)
        self.name = name
        self._cv = threading.Condition(threading.Lock())
        self._queue: list[BatchItem] = []
        self._closed = False
        self._thread: threading.Thread | None = None
        # Cumulative accounting (also exported as serve.batch.* metrics).
        self.batches = 0
        self.batched_pairs = 0
        self.coalesced_requests = 0

    # -- lifecycle ---------------------------------------------------------
    def _ensure_thread(self) -> None:
        if self._thread is None or not self._thread.is_alive():
            self._thread = threading.Thread(
                target=self._loop, name=f"repro-batcher-{self.name}",
                daemon=True)
            self._thread.start()

    def close(self) -> None:
        """Stop the dispatcher; queued requests fail with a typed error."""
        with self._cv:
            self._closed = True
            pending, self._queue = self._queue, []
            self._cv.notify_all()
        for item in pending:
            item.fail(PredictionError("batcher closed while request queued"))
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

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
        if not self.enabled or self._closed:
            self._run_batch([item])
        else:
            with self._cv:
                if self._closed:
                    raise PredictionError("batcher is closed")
                self._queue.append(item)
                self._ensure_thread()
                self._cv.notify()
            if not item.event.wait(timeout):
                raise PredictionError(
                    f"batched request timed out after {timeout}s "
                    f"(dispatcher stalled?)")
        if item.error is not None:
            raise item.error
        return item

    # -- the dispatcher ----------------------------------------------------
    def _collect(self) -> list[BatchItem]:
        """Block until a request is queued, then take the whole queue."""
        with self._cv:
            while not self._queue and not self._closed:
                self._cv.wait()
            batch, self._queue = self._queue, []
            return batch

    def _loop(self) -> None:
        while True:
            batch = self._collect()
            if not batch:
                return
            self._run_batch(batch)

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
        except BaseException as exc:  # scatter the failure, keep dispatching
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
            "enabled": self.enabled,
            "queued": queued,
            "batches": self.batches,
            "batched_pairs": self.batched_pairs,
            "coalesced_requests": self.coalesced_requests,
        }
