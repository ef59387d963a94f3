"""Keep-alive HTTP load generators: a closed loop and an open loop.

Both loops use at most ``connections`` client threads, one persistent
HTTP/1.1 connection each. Responses are kept as raw bytes during the
timed window and parsed afterwards, so the client spends as little CPU
as possible next to the server it measures. The open loop must read its
predict answer to send the matching feedback, so it parses inline.
"""

from __future__ import annotations

import http.client
import json
import threading
import time
from dataclasses import dataclass

_HEADERS = {"Content-Type": "application/json"}


@dataclass
class Sample:
    """One HTTP exchange as the client saw it."""

    path: str
    request: object            # workloads.Request, or None for feedback
    port: int                  # client-side port: keys the server's spans
    seq: int                   # 1-based request number on that connection
    t0: float
    t1: float
    status: int                # 0 = transport error
    body: bytes

    @property
    def ok(self) -> bool:
        return self.status == 200

    @property
    def latency_ms(self) -> float:
        return (self.t1 - self.t0) * 1e3


class Connection:
    """A persistent connection that reconnects after transport errors."""

    def __init__(self, port: int, timeout: float = 60.0) -> None:
        self.port = port
        self.timeout = timeout
        self._conn: http.client.HTTPConnection | None = None
        self.local_port = 0
        self.seq = 0

    def _connect(self) -> http.client.HTTPConnection:
        conn = http.client.HTTPConnection("127.0.0.1", self.port,
                                          timeout=self.timeout)
        conn.connect()
        self.local_port = conn.sock.getsockname()[1]
        self.seq = 0
        self._conn = conn
        return conn

    def send(self, method: str, path: str, body: bytes | None,
             request=None) -> Sample:
        conn = self._conn or self._connect()
        self.seq += 1
        t0 = time.perf_counter()
        try:
            conn.request(method, path, body=body, headers=_HEADERS)
            response = conn.getresponse()
            data = response.read()
            status = response.status
        except (OSError, http.client.HTTPException):
            data, status = b"", 0
            self.close()
        t1 = time.perf_counter()
        return Sample(path, request, self.local_port, self.seq, t0, t1,
                      status, data)

    def close(self) -> None:
        if self._conn is not None:
            self._conn.close()
            self._conn = None


def _join(threads: list[threading.Thread]) -> None:
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()


def closed_loop(port: int, path: str, stream, connections: int,
                window_start: float, window_end: float) -> list[Sample]:
    """Each connection sends its next request when the last returns.

    Runs from now (warm-up) until ``window_end``; returns the exchanges
    that completed inside ``[window_start, window_end]``.
    """
    kept: list[Sample] = []

    def worker() -> None:
        conn = Connection(port)
        try:
            while time.perf_counter() < window_end:
                request = stream.next()
                sample = conn.send("POST", path, request.body, request)
                if window_start <= sample.t1 <= window_end:
                    kept.append(sample)
        finally:
            conn.close()

    _join([threading.Thread(target=worker, name=f"client-{i}")
           for i in range(connections)])
    kept.sort(key=lambda s: s.t0)
    return kept


@dataclass
class Op:
    """One open-loop operation: predict, then feedback on its cheapest plan."""

    index: int
    due: float
    factor: float
    started: float = 0.0
    done: float = 0.0
    predict: Sample | None = None
    feedback: Sample | None = None
    answer: dict | None = None          # parsed predict response
    predicted: float | None = None      # served seconds of the chosen plan
    skipped: bool = False               # never sent: drain budget exhausted

    @property
    def latency_ms(self) -> float:
        """Completion time measured from when the op was due."""
        return (self.done - self.due) * 1e3


def open_loop(port: int, path: str, requests: list, due: list[float],
              factors, connections: int, drain_s: float = 20.0) -> list[Op]:
    """Send each op at its due time on the first free connection.

    An op that finds every connection busy starts late; its latency still
    counts from its due time, and ``started - due`` is the generator's
    lateness. Ops that cannot start within ``drain_s`` of the last due
    time are not sent and count as failed.
    """
    ops = [Op(i, d, float(f)) for i, (d, f) in enumerate(zip(due, factors))]
    give_up = (due[-1] if due else time.perf_counter()) + drain_s
    lock = threading.Lock()
    cursor = iter(range(len(ops)))

    def worker() -> None:
        conn = Connection(port)
        try:
            while True:
                with lock:
                    i = next(cursor, None)
                if i is None:
                    return
                op = ops[i]
                wait = op.due - time.perf_counter()
                if wait > 0:
                    time.sleep(wait)
                op.started = time.perf_counter()
                if op.started > give_up:
                    op.skipped = True
                    op.done = op.started
                    continue
                _run_op(conn, path, requests[i], op)
        finally:
            conn.close()

    _join([threading.Thread(target=worker, name=f"client-{i}")
           for i in range(connections)])
    return ops


def _run_op(conn: Connection, path: str, request, op: Op) -> None:
    op.predict = conn.send("POST", path, request.body, request)
    if op.predict.ok:
        try:
            op.answer = json.loads(op.predict.body)
            best = min(op.answer["plans"], key=lambda p: p["seconds"])
            op.predicted = float(best["seconds"])
            body = json.dumps({
                "request_id": op.answer["request_id"],
                "index": int(best["feedback_index"]),
                "observed_seconds": op.predicted * op.factor}).encode()
            op.feedback = conn.send("POST", "/v1/feedback", body)
        except (ValueError, KeyError, TypeError):
            op.answer = None
    op.done = time.perf_counter()
