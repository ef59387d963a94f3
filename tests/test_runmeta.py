"""Run metadata stamped into every ``BENCH_*.json`` artifact."""

import subprocess
from types import SimpleNamespace

import pytest

from benchmarks import runmeta


def fake_git(outputs: dict):
    """A ``subprocess.run`` stand-in answering git commands from a table."""
    calls = []

    def run(cmd, **kwargs):
        calls.append(cmd)
        answer = outputs.get(cmd[1])
        if isinstance(answer, BaseException):
            raise answer
        if answer is None:
            return SimpleNamespace(returncode=128, stdout="", stderr="")
        return SimpleNamespace(returncode=0, stdout=answer, stderr="")

    run.calls = calls
    return run


@pytest.mark.parametrize("porcelain, dirty", [
    ("", False),
    (" M src/repro/cli.py\n", True),
    ("D  old.py\nR  a.py -> b.py\n", True),
])
def test_git_dirty_follows_tracked_changes(monkeypatch, porcelain, dirty):
    run = fake_git({"rev-parse": "abc123\n", "status": porcelain})
    monkeypatch.setattr(subprocess, "run", run)
    meta = runmeta.run_metadata(timestamp="t")
    assert meta["git_sha"] == "abc123"
    assert meta["git_dirty"] is dirty
    # Untracked files (scratch output, caches) do not make a tree dirty.
    (status,) = [cmd for cmd in run.calls if cmd[1] == "status"]
    assert status == ["git", "status", "--porcelain",
                      "--untracked-files=no"]


@pytest.mark.parametrize("failure", [None, OSError("no git"),
                                     subprocess.TimeoutExpired("git", 10)])
def test_git_unavailable_records_unknown(monkeypatch, failure):
    monkeypatch.setattr(subprocess, "run",
                        fake_git({"rev-parse": failure, "status": failure}))
    meta = runmeta.run_metadata(timestamp="t")
    assert meta["git_sha"] is None
    assert meta["git_dirty"] is None
