"""Run metadata: what ran, where, and on how many CPUs.

Uses the standard library and numpy only. The git SHA is read when the
checkout is a git repository; otherwise a digest of ``src/`` identifies
the program.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

_THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS")


def effective_cpus() -> dict:
    """CPUs this process may use: affinity mask and cgroup quota."""
    info = {"os_cpu_count": os.cpu_count()}
    try:
        info["affinity"] = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):
        info["affinity"] = None
    quota = None
    try:   # cgroup v2
        text = Path("/sys/fs/cgroup/cpu.max").read_text().split()
        if text and text[0] != "max":
            quota = int(text[0]) / int(text[1])
    except (OSError, ValueError, IndexError):
        try:   # cgroup v1
            q = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_quota_us").read_text())
            p = int(Path("/sys/fs/cgroup/cpu/cpu.cfs_period_us").read_text())
            quota = q / p if q > 0 else None
        except (OSError, ValueError):
            pass
    info["cgroup_quota_cpus"] = quota
    limits = [v for v in (info["affinity"], quota) if v]
    info["effective"] = min(limits) if limits else info["os_cpu_count"]
    return info


def blas_info() -> dict:
    import numpy as np

    info = {"numpy": np.__version__,
            "thread_env": {k: os.environ.get(k) for k in _THREAD_ENV}}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
        info["blas"] = {"name": blas.get("name"),
                        "version": blas.get("version")}
    except (TypeError, AttributeError):   # numpy < 1.25
        info["blas"] = None
    return info


def program_id(root: Path) -> dict:
    """Git SHA when available, plus a digest of the program sources."""
    sha = None
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                             capture_output=True, text=True,
                             timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest()}


def run_metadata(root: Path, model: Path, workload, seed: int,
                 seconds: float, trace: bool, server_threads: list[int],
                 result) -> dict:
    from repro.core.persistence import checkpoint_fingerprint

    cpus = effective_cpus()
    program = program_id(root)
    meta = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "workload": workload.params(),
        "program": program,
        "checkpoint_sha256": checkpoint_fingerprint(str(model)),
        "cpus": cpus,
        "server_threads": {
            "samples": len(server_threads),
            "median": (statistics.median(server_threads)
                       if server_threads else None),
            "max": max(server_threads) if server_threads else None,
        },
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "blas": blas_info(),
        "outcome": {"attempted": result.attempted, "failed": result.failed,
                    "rejected": len(result.rejected),
                    "latency_samples": len(result.latencies_ms),
                    "latencies_ms": [round(v, 4) for v in
                                     result.latencies_ms],
                    "tier_pairs": result.tier_pairs,
                    "feedback_sent": result.feedback_sent,
                    "feedback_recorded": result.feedback_recorded,
                    "feedback_lost": result.feedback_lost},
    }
    meta["summary"] = (
        f"seed {seed}, {seconds:g}s, {cpus['effective']} effective CPUs, "
        f"server threads max {meta['server_threads']['max']}, "
        f"src {(program['git_sha'] or program['src_sha256'])[:12]}, "
        f"checkpoint {meta['checkpoint_sha256'][:12]}")
    return meta


def write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
