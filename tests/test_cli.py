"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from tests.faults import FaultInjector


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_experiment_defaults(self):
        args = build_parser().parse_args(["experiment"])
        assert args.dataset == "imdb"
        assert args.variant == "RAAL"
        assert not args.no_resource_attention

    def test_train_requires_out(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["train"])

    @pytest.mark.parametrize("argv", [["train", "--out", "x"], ["experiment"]])
    def test_retired_no_fast_path_flag_rejected(self, argv, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*argv, "--no-fast-path"])
        assert "unrecognized arguments: --no-fast-path" in capsys.readouterr().err

    @pytest.mark.parametrize("command, flag", [
        (["serve", "--model", "m"], "--batch-window-ms"),
        (["serve", "--model", "m"], "--max-batch-pairs"),
        (["serve", "--model", "m"], "--precision"),
        (["predict", "--model", "m", "--sql", "select count(*) from title t"],
         "--precision"),
        (["serve", "--model", "m"], "--threads"),
        (["predict", "--model", "m", "--sql", "select count(*) from title t"],
         "--threads"),
        (["serve", "--model", "m"], "--no-batching"),
        (["serve", "--model", "m"], "--shed-mode"),
        (["serve", "--model", "m"], "--max-in-flight"),
        (["serve", "--model", "m"], "--max-queue-depth")],
        ids=["--batch-window-ms", "--max-batch-pairs", "serve--precision",
             "predict--precision", "serve--threads", "predict--threads",
             "--no-batching", "--shed-mode", "--max-in-flight",
             "--max-queue-depth"])
    def test_retired_batching_knobs_rejected(self, command, flag, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args([*command, flag, "2"])
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_predict_args(self):
        args = build_parser().parse_args([
            "predict", "--model", "m", "--sql", "select count(*) from title t",
            "--memory-gb", "2.5"])
        assert args.memory_gb == 2.5

    def test_invalid_dataset_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["experiment", "--dataset", "oracle"])


class TestCommands:
    def test_workload_prints_sql(self, capsys):
        code = main(["workload", "--queries", "3", "--catalog-scale", "0.05",
                     "--max-joins", "2"])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("select count(*)") == 3
        assert out.strip().endswith(";")

    def test_workload_numeric_class(self, capsys):
        code = main(["workload", "--queries", "5", "--catalog-scale", "0.05",
                     "--workload-class", "numeric"])
        assert code == 0
        assert "like '" not in capsys.readouterr().out

    def test_experiment_smoke(self, capsys):
        code = main(["experiment", "--queries", "12", "--epochs", "2",
                     "--catalog-scale", "0.05"])
        assert code == 0
        out = capsys.readouterr().out
        assert "RE" in out and "MSE" in out

    def test_train_then_predict(self, tmp_path, capsys):
        model_dir = str(tmp_path / "model")
        code = main(["train", "--queries", "12", "--epochs", "2",
                     "--catalog-scale", "0.05", "--out", model_dir])
        assert code == 0
        code = main([
            "predict", "--model", model_dir, "--catalog-scale", "0.05",
            "--sql", "select count(*) from title t where t.kind_id < 3",
            "--memory-gb", "2.0"])
        assert code == 0
        out = capsys.readouterr().out
        assert "<-- chosen" in out
        assert "source: raal" in out


class TestErrorBoundary:
    def test_missing_model_exits_nonzero_with_one_liner(self, tmp_path, capsys):
        code = main([
            "predict", "--model", str(tmp_path / "nope"),
            "--catalog-scale", "0.05",
            "--sql", "select count(*) from title t"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error:")
        assert len(captured.err.strip().splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_bad_sql_exits_nonzero(self, shared_model_dir, capsys):
        code = main([
            "predict", "--model", shared_model_dir, "--catalog-scale", "0.05",
            "--sql", "select frobnicate wat"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")


@pytest.fixture(scope="module")
def shared_model_dir(tmp_path_factory):
    """One trained checkpoint shared by the doctor/error tests."""
    model_dir = str(tmp_path_factory.mktemp("cli-model") / "model")
    code = main(["train", "--queries", "12", "--epochs", "2",
                 "--catalog-scale", "0.05", "--out", model_dir])
    assert code == 0
    return model_dir


class TestDoctor:
    def test_doctor_ok_on_healthy_checkpoint(self, shared_model_dir, capsys):
        code = main(["doctor", shared_model_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "OK" in out
        assert "self-test prediction OK" in out
        assert "health state: gate=closed" in out
        assert "health self-check OK (served by the learned stage, gate " \
            "closed)" in out

    def test_doctor_manifest_only_mode(self, shared_model_dir, capsys):
        code = main(["doctor", shared_model_dir, "--no-selftest"])
        assert code == 0
        assert "self-test" not in capsys.readouterr().out

    def test_doctor_flags_truncated_checkpoint(self, shared_model_dir,
                                               tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(shared_model_dir, broken)
        FaultInjector().truncate_file(broken / "model.npz", keep_fraction=0.4)
        code = main(["doctor", str(broken)])
        assert code == 1
        out = capsys.readouterr().out
        assert "model.npz" in out
        assert "FAILED" in out

    def test_doctor_missing_directory(self, tmp_path, capsys):
        code = main(["doctor", str(tmp_path / "ghost")])
        assert code == 1

    def test_doctor_reports_telemetry_self_check(self, shared_model_dir,
                                                 capsys):
        code = main(["doctor", shared_model_dir])
        assert code == 0
        out = capsys.readouterr().out
        assert "telemetry self-check OK" in out
        assert "encode/forward stages" in out


class TestTelemetryFlag:
    def test_predict_emits_telemetry_jsonl(self, shared_model_dir, tmp_path,
                                           capsys):
        import json

        path = tmp_path / "run.jsonl"
        code = main([
            "predict", "--model", shared_model_dir, "--catalog-scale", "0.05",
            "--sql", "select count(*) from title t",
            "--emit-telemetry", str(path)])
        assert code == 0
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        assert records, "telemetry stream is empty"
        final = records[-1]
        assert final["event"] == "telemetry_report"
        metrics = final["report"]["metrics"]
        assert "guard.requests_total" in metrics
        assert "selector.selections_total" in metrics
        assert "encoder.cache.misses" in metrics
        assert metrics["predict.forward_seconds"]["count"] >= 1

    def test_experiment_telemetry_covers_training(self, tmp_path, capsys):
        import json

        path = tmp_path / "train.jsonl"
        code = main(["experiment", "--queries", "12", "--epochs", "2",
                     "--catalog-scale", "0.05",
                     "--emit-telemetry", str(path)])
        assert code == 0
        records = [json.loads(line)
                   for line in path.read_text().strip().splitlines()]
        epochs = [r for r in records
                  if r["component"] == "trainer" and r["event"] == "epoch"]
        assert len(epochs) >= 2
        metrics = records[-1]["report"]["metrics"]
        assert metrics["train.epoch_seconds"]["count"] >= 2
        assert "train.epochs_run" in metrics


class TestMetricsVerb:
    @pytest.fixture(scope="class")
    def artifact(self, shared_model_dir, tmp_path_factory):
        path = tmp_path_factory.mktemp("telemetry") / "run.jsonl"
        code = main([
            "predict", "--model", shared_model_dir, "--catalog-scale", "0.05",
            "--sql", "select count(*) from title t",
            "--emit-telemetry", str(path)])
        assert code == 0
        return str(path)

    def test_metrics_table(self, artifact, capsys):
        code = main(["metrics", artifact])
        assert code == 0
        out = capsys.readouterr().out
        assert "guard.requests_total" in out
        assert "predict.forward_seconds" in out

    def test_metrics_json(self, artifact, capsys):
        import json

        code = main(["metrics", artifact, "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["metrics"]["guard.requests_total"]["value"] >= 1

    def test_metrics_prometheus(self, artifact, capsys):
        code = main(["metrics", artifact, "--format", "prom"])
        assert code == 0
        out = capsys.readouterr().out
        assert "# TYPE guard_requests_total counter" in out
        assert 'predict_forward_seconds_bucket{le="+Inf"}' in out

    def test_metrics_missing_artifact_one_liner(self, tmp_path, capsys):
        code = main(["metrics", str(tmp_path / "ghost.jsonl")])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestTopVerb:
    def test_top_shows_gate_state_and_trips_by_cause(self, tmp_path, capsys):
        import re

        from repro import obs

        telemetry = obs.Telemetry.create()
        with obs.attached(telemetry):
            obs.set_gauge("health.state", 2)
            obs.inc("gate.deadline_trips_total")
        path = tmp_path / "report.json"
        obs.TelemetryReport.from_telemetry(telemetry).write(path)
        assert main(["top", str(path), "--once"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"\bgate\s+open\b", out), out
        assert "failures=0 deadline=1 drift=0" in out
        assert "ladder" not in out


class TestServeShutdown:
    """``repro serve`` drains on SIGINT even when started as a background
    job, which a non-interactive shell launches with SIGINT ignored."""

    @staticmethod
    def _serve(model_dir):
        import os
        import signal
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONUNBUFFERED="1")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        # Unbuffered stdout: the callers select() on the pipe and then
        # readline(); a buffered reader could pull two lines in one read
        # and leave the second invisible to the next select().
        return subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--model", model_dir,
             "--catalog-scale", "0.05", "--host", "127.0.0.1", "--port", "0"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
            bufsize=0,
            preexec_fn=lambda: signal.signal(signal.SIGINT, signal.SIG_IGN))

    @staticmethod
    def _wait_healthy(proc, timeout=60.0) -> str:
        """Output up to the listening line, once ``/healthz`` answers."""
        import re
        import select
        import time
        import urllib.request

        deadline = time.monotonic() + timeout
        output = ""
        port = None
        while port is None:
            remaining = deadline - time.monotonic()
            assert remaining > 0 and proc.poll() is None, output
            ready, _, _ = select.select([proc.stdout], [], [], remaining)
            if ready:
                output += proc.stdout.readline().decode()
                match = re.search(r"listening on http://[^:]+:(\d+)", output)
                port = match and match.group(1)
        url = f"http://127.0.0.1:{port}/healthz"
        while True:
            try:
                with urllib.request.urlopen(url, timeout=5.0) as response:
                    assert response.status == 200
                    return output
            except OSError:
                assert time.monotonic() < deadline, output
                time.sleep(0.1)

    def test_signal_handlers_installed_before_serving(
            self, shared_model_dir, monkeypatch, capsys):
        """The drain handlers are in place before the first connection
        can be accepted, so a signal sent as soon as ``/healthz``
        answers cannot kill (or be lost by) the server."""
        import signal

        import repro.serving

        seen = {}

        class Interrupted:
            def join(self, timeout=None):
                raise KeyboardInterrupt

        class FakeServer:
            port = 0
            _thread = Interrupted()

            def __init__(self, service):
                self.service = service

            def close(self):
                seen["closed"] = True
                self.service.close()

        def fake_serve(service, host, port, background):
            seen["handlers"] = (signal.getsignal(signal.SIGINT),
                                signal.getsignal(signal.SIGTERM))
            return FakeServer(service)

        monkeypatch.setattr(repro.serving, "serve", fake_serve)
        before = signal.getsignal(signal.SIGTERM)
        code = main(["serve", "--model", shared_model_dir,
                     "--catalog-scale", "0.05", "--port", "0"])
        assert code == 0
        assert seen["handlers"] == (signal.default_int_handler,) * 2
        assert seen["closed"]
        assert signal.getsignal(signal.SIGTERM) is before
        assert "shutting down" in capsys.readouterr().out

    @pytest.mark.parametrize("signame", ["SIGINT", "SIGTERM"])
    def test_signal_drains_with_sigint_ignored(self, shared_model_dir,
                                               signame):
        import signal
        import subprocess

        proc = self._serve(shared_model_dir)
        try:
            output = self._wait_healthy(proc)
            proc.send_signal(getattr(signal, signame))
            try:
                rest, _ = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                pytest.fail(f"repro serve ignored {signame} for 10 s")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        output += rest.decode()
        assert proc.returncode == 0, output
        assert "shutting down" in output

    def test_second_signal_during_drain_is_ignored(self, shared_model_dir):
        """A second SIGINT sent while the server drains (inside
        ``close()``, which waits for the accept loop to stop) neither
        kills it nor prints a traceback."""
        import select
        import signal
        import subprocess
        import time

        proc = self._serve(shared_model_dir)
        try:
            output = self._wait_healthy(proc)
            proc.send_signal(signal.SIGINT)
            deadline = time.monotonic() + 10.0
            while "shutting down" not in output:
                remaining = deadline - time.monotonic()
                assert remaining > 0 and proc.poll() is None, output
                ready, _, _ = select.select([proc.stdout], [], [], remaining)
                if ready:
                    output += proc.stdout.readline().decode()
            proc.send_signal(signal.SIGINT)
            try:
                rest, _ = proc.communicate(timeout=10.0)
            except subprocess.TimeoutExpired:
                pytest.fail("repro serve did not exit 10 s after SIGINT")
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        output += rest.decode()
        assert proc.returncode == 0, output
        assert "Traceback" not in output, output
