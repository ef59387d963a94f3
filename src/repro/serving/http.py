"""Stdlib HTTP front-end for :class:`~repro.serving.service.PredictionService`.

The transport layer is deliberately thin: parse the JSON body, look the
path up in the declarative :data:`ROUTES` table, call the matching
service method, serialize the result, and map typed errors onto HTTP
status codes. All request semantics (batching, deadlines, hot swap)
live in :mod:`repro.serving.service` and below, so this file stays
small enough to audit and the docs-surface lint can enumerate the API
from :data:`ROUTES` directly.

Status mapping (see ``docs/API.md``):

====  ==================================================================
400   malformed request — :class:`~repro.errors.ServingError`,
      SQL parse/analysis errors, bad resource profiles
404   unknown route, or unknown model id
      (:class:`~repro.errors.ModelNotFound`)
405   method not allowed for a known path
409   deploy/promote/rollback conflicts
      (:class:`~repro.errors.DeployConflict`, and checkpoint
      verification failures)
429   admission shed under ``shed_mode=reject``
      (:class:`~repro.errors.Overloaded`)
500   prediction chain exhausted, or any unexpected server error
504   deadline blown under ``shed_mode=reject``
      (:class:`~repro.errors.DeadlineExceeded`)
====  ==================================================================

Concurrency: :class:`ThreadingHTTPServer` gives one thread per
connection (HTTP/1.1 keep-alive), which is exactly what the
micro-batcher wants — request threads parked behind a running batch,
so their pairs fuse into the next forward.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from repro.errors import (CheckpointError, DeadlineExceeded, DeployConflict,
                          ModelNotFound, Overloaded, PredictionError,
                          ReproError, ServingError, SQLError)
from repro.serving.service import PredictionService

__all__ = ["Route", "ROUTES", "ReproHTTPServer", "serve"]


@dataclass(frozen=True)
class Route:
    """One HTTP endpoint: the docs lint enumerates these."""

    method: str
    path: str
    handler: str       # PredictionService method name
    body: bool         # whether a JSON body is parsed and passed
    summary: str


ROUTES = (
    Route("POST", "/v1/predict", "predict", True,
          "Score one statement's candidate plans under a resource profile"),
    Route("POST", "/v1/predict_grid", "predict_grid", True,
          "Score candidate plans under many resource profiles at once"),
    Route("POST", "/v1/feedback", "feedback", True,
          "Report an observed runtime for a served prediction"),
    Route("GET", "/v1/models", "models", False,
          "List serving models, versions, and swap state"),
    Route("GET", "/healthz", "health", False,
          "Liveness plus gate/breaker/admission posture per model"),
    Route("GET", "/metrics", "metrics_text", False,
          "Prometheus text exposition of the serving metrics"),
    Route("POST", "/admin/deploy", "deploy", True,
          "Verify and stage a candidate checkpoint for shadow scoring"),
    Route("POST", "/admin/promote", "promote", True,
          "Promote the shadowing candidate to incumbent"),
    Route("POST", "/admin/rollback", "rollback", True,
          "Swap the previous incumbent back in"),
)

_BY_PATH: dict[str, dict[str, Route]] = {}
for _route in ROUTES:
    _BY_PATH.setdefault(_route.path, {})[_route.method] = _route

#: Most specific first — isinstance() walks this in order.
_STATUS_MAP = (
    (DeadlineExceeded, 504),
    (Overloaded, 429),
    (ModelNotFound, 404),
    (DeployConflict, 409),
    (CheckpointError, 409),
    (ServingError, 400),
    (SQLError, 400),
    (PredictionError, 500),
    (ReproError, 400),
)


def _status_for(exc: BaseException) -> int:
    for kind, status in _STATUS_MAP:
        if isinstance(exc, kind):
            return status
    return 500


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    server_version = "repro-serve"
    # TCP_NODELAY on every accepted socket (see _respond).
    disable_nagle_algorithm = True
    # Set by ReproHTTPServer; class attribute so the stdlib handler
    # factory (which only passes socket args) can reach the service.
    service: PredictionService

    # Silence the default stderr access log; requests are observable
    # through /metrics and the event log instead.
    def log_message(self, format, *args):  # noqa: A002 (stdlib signature)
        pass

    def _respond(self, status: int, result: dict | str) -> None:
        """Send one response — status line, headers and body — in one write.

        A ``str`` result is the ``/metrics`` text exposition; anything
        else is serialized as JSON. Headers and body leaving in two
        writes on a kept-alive socket let Nagle's algorithm hold the
        body until the client's delayed ACK of the headers (~40 ms on
        Linux loopback); one write, plus ``TCP_NODELAY`` on the
        accepted socket, removes that stall.
        """
        if isinstance(result, str):
            body = result.encode("utf-8")
            content_type = "text/plain; version=0.0.4; charset=utf-8"
        else:
            body = json.dumps(result).encode("utf-8")
            content_type = "application/json"
        self.send_response(status)
        self.send_header("Content-Type", content_type)
        self.send_header("Content-Length", str(len(body)))
        if self.request_version == "HTTP/0.9":  # no status line, no headers
            self.wfile.write(body)
            return
        # end_headers() would flush the headers on their own: append the
        # blank line and the body to the stdlib's header buffer instead,
        # so flush_headers() writes everything at once.
        self._headers_buffer.append(b"\r\n" + body)
        self.flush_headers()

    def _read_body(self) -> dict:
        length = int(self.headers.get("Content-Length") or 0)
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            body = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise ServingError(f"request body is not valid JSON: {exc}")
        if not isinstance(body, dict):
            raise ServingError("request body must be a JSON object")
        return body

    def _dispatch(self, method: str) -> None:
        path = self.path.split("?", 1)[0].rstrip("/") or "/"
        methods = _BY_PATH.get(path)
        if methods is None:
            self._respond(404, {"error": f"unknown path {path!r}",
                                "type": "NotFound"})
            return
        route = methods.get(method)
        if route is None:
            self._respond(405, {"error": f"{method} not allowed on {path}",
                                "type": "MethodNotAllowed",
                                "allowed": sorted(methods)})
            return
        try:
            handler = getattr(self.service, route.handler)
            result = handler(self._read_body()) if route.body else handler()
        except Exception as exc:  # typed errors become status codes
            status = _status_for(exc)
            payload = {"error": str(exc), "type": type(exc).__name__}
            self._respond(status, payload)
            return
        self._respond(200, result)

    def do_GET(self) -> None:  # noqa: N802 (stdlib naming)
        self._dispatch("GET")

    def do_POST(self) -> None:  # noqa: N802
        self._dispatch("POST")


class ReproHTTPServer(ThreadingHTTPServer):
    """Threaded HTTP server bound to one :class:`PredictionService`."""

    daemon_threads = True

    def __init__(self, service: PredictionService,
                 host: str = "127.0.0.1", port: int = 0) -> None:
        handler = type("BoundHandler", (_Handler,), {"service": service})
        super().__init__((host, port), handler)
        self.service = service
        self._thread: threading.Thread | None = None

    @property
    def port(self) -> int:
        return self.server_address[1]

    def start_background(self) -> None:
        """Serve on a daemon thread (tests and the smoke job)."""
        self._thread = threading.Thread(
            target=self.serve_forever, name="repro-serve-http", daemon=True)
        self._thread.start()

    def close(self) -> None:
        """Stop accepting, then drain the service (batchers, executors)."""
        self.shutdown()
        self.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
        self.service.close()


def serve(service: PredictionService, host: str = "127.0.0.1",
          port: int = 0, background: bool = False) -> ReproHTTPServer:
    """Bind and run the HTTP front-end; returns the server.

    With ``background=True`` the accept loop runs on a daemon thread
    and the bound server (with its resolved ``port``, useful with
    ``port=0``) is returned immediately. Otherwise the call blocks in
    ``serve_forever`` until interrupted, then drains the service.
    """
    server = ReproHTTPServer(service, host=host, port=port)
    if background:
        server.start_background()
        return server
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.shutdown()
        server.server_close()
        service.close()
    return server
