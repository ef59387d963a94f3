"""Run metadata for every ``BENCH_*.json`` artifact.

Performance numbers are only comparable when the run context is
attributable: which commit (and whether the tree had uncommitted
changes to tracked files, so an artifact regenerated inside a change
does not pass for its parent's), which numpy/BLAS build, how many
cores, and which BLAS threading caps were in force. :func:`run_metadata` collects
that context; :func:`write_bench_json` stamps it into each benchmark
artifact under a ``"meta"`` key, so the perf trajectory across PRs can
separate code changes from environment changes.

Timestamps are passed in by the harness (or default to the wall clock
at write time) so replayed/recorded runs can carry their original
capture time.
"""

from __future__ import annotations

import datetime
import json
import os
import pathlib
import subprocess

import numpy as np

__all__ = ["run_metadata", "write_bench_json"]

_REPO_ROOT = pathlib.Path(__file__).parent.parent

# Environment caps that change BLAS behavior between otherwise-identical
# hosts; recorded verbatim when set.
_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _git(*args: str) -> str | None:
    """Stripped stdout of one git command, or ``None`` if it failed."""
    try:
        out = subprocess.run(
            ["git", *args], cwd=_REPO_ROOT,
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _blas_info() -> dict:
    """Name/version of the BLAS numpy linked against (best effort)."""
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        return {"name": blas.get("name"), "version": blas.get("version")}
    except Exception:  # pragma: no cover - numpy build without dicts mode
        return {}


def run_metadata(timestamp: str | None = None) -> dict:
    """Attributable context of one benchmark run."""
    if timestamp is None:
        timestamp = datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds")
    status = _git("status", "--porcelain", "--untracked-files=no")
    return {
        "git_sha": _git("rev-parse", "HEAD") or None,
        "git_dirty": bool(status) if status is not None else None,
        "timestamp": timestamp,
        "numpy_version": np.__version__,
        "blas": _blas_info(),
        "cpu_count": os.cpu_count(),
        "thread_env": {name: os.environ[name]
                       for name in _THREAD_ENV if name in os.environ},
    }


def write_bench_json(path: pathlib.Path, payload: dict,
                     timestamp: str | None = None) -> None:
    """Write a ``BENCH_*.json`` artifact with run metadata attached."""
    payload = dict(payload)
    payload["meta"] = run_metadata(timestamp=timestamp)
    path.write_text(json.dumps(payload, indent=2) + "\n")
