"""Spawn, probe and stop a ``repro serve`` subprocess."""

from __future__ import annotations

import http.client
import os
import re
import select
import signal
import subprocess
import sys
import time
from pathlib import Path

from workloads import CATALOG_SCALE, DATASET

_LISTENING = re.compile(rb"listening on http://[^:]+:(\d+)")


class ServerError(RuntimeError):
    pass


def serve_args(model_dir: Path) -> list[str]:
    """``repro serve`` arguments: its defaults, on a free loopback port."""
    return ["serve", "--model", str(model_dir), "--dataset", DATASET,
            "--catalog-scale", str(CATALOG_SCALE), "--host", "127.0.0.1",
            "--port", "0"]


class Server:
    """One server process; ``setup_s`` runs from spawn to first healthz 200.

    With ``spans_out`` the server is started through the tracing
    launcher (``traced_serve.py``), which writes its spans there at
    shutdown.
    """

    def __init__(self, root: Path, model_dir: Path, log_path: Path,
                 spans_out: Path | None = None) -> None:
        self.root = root
        self.model_dir = model_dir
        self.log_path = log_path
        self.spans_out = spans_out
        self.proc: subprocess.Popen | None = None
        self.port: int | None = None
        self.setup_s: float | None = None

    def start(self, timeout: float = 60.0) -> float:
        env = dict(os.environ)
        src = str(self.root / "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        env["PYTHONUNBUFFERED"] = "1"
        if self.spans_out is None:
            cmd = [sys.executable, "-m", "repro"]
        else:
            launcher = Path(__file__).resolve().parent / "traced_serve.py"
            cmd = [sys.executable, str(launcher),
                   "--spans-out", str(self.spans_out)]
        log = open(self.log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(
            cmd + serve_args(self.model_dir), cwd=self.root, env=env,
            stdout=subprocess.PIPE, stderr=log)
        log.close()
        self.port = self._wait_for_port(started + timeout)
        self._wait_healthy(started + timeout)
        self.setup_s = time.perf_counter() - started
        return self.setup_s

    def _wait_for_port(self, deadline: float) -> int:
        out = self.proc.stdout
        buffered = b""
        while time.perf_counter() < deadline:
            ready, _, _ = select.select([out], [], [], 0.05)
            if ready:
                chunk = os.read(out.fileno(), 4096)
                if not chunk:
                    break
                buffered += chunk
                match = _LISTENING.search(buffered)
                if match:
                    return int(match.group(1))
            elif self.proc.poll() is not None:
                break
        self.stop()
        raise ServerError(f"server did not start; see {self.log_path}")

    def _wait_healthy(self, deadline: float) -> None:
        while time.perf_counter() < deadline:
            try:
                status, _ = self.get("/healthz")
                if status == 200:
                    return
            except OSError:
                pass
            time.sleep(0.002)
        self.stop()
        raise ServerError("server never answered /healthz with 200")

    def get(self, path: str) -> tuple[int, bytes]:
        conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            conn.request("GET", path)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _status_field(self, key: str) -> int | None:
        try:
            text = Path(f"/proc/{self.proc.pid}/status").read_text()
        except OSError:
            return None
        match = re.search(rf"^{key}:\s+(\d+)", text, re.M)
        return int(match.group(1)) if match else None

    def rss_hwm_mb(self) -> float | None:
        """Peak resident set size (VmHWM) so far, in MiB."""
        kib = self._status_field("VmHWM")
        return None if kib is None else kib / 1024.0

    def threads(self) -> int | None:
        return self._status_field("Threads")

    def stop(self, timeout: float = 30.0, graceful: bool = True) -> None:
        """SIGINT (the server drains), then SIGKILL if it lingers.

        ``graceful=False`` kills at once: for servers that only had
        their set-up time measured and hold no state worth draining.
        """
        proc = self.proc
        if proc is None or proc.poll() is not None:
            self._reap(proc)
            return
        if graceful:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout)
            except subprocess.TimeoutExpired:
                proc.kill()
        else:
            proc.kill()
        proc.wait(10)
        self._reap(proc)

    @staticmethod
    def _reap(proc) -> None:
        if proc is not None and proc.stdout is not None:
            proc.stdout.close()
