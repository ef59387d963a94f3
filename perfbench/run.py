#!/usr/bin/env python3
"""Serving benchmark: a real ``repro serve`` driven over loopback HTTP.

Usage (from the repository root)::

    python3 perfbench/run.py --workload select_hot --seed 1 --seconds 20
    python3 perfbench/run.py --workload advise_grid --seed 1 --trace 1
    python3 perfbench/run.py --all --seed 1        # every workload in turn

The first run in a checkout trains the served model once (about 20 s on
two cores) into ``.bench_build/perfbench/model``; later runs reuse it.
Each run prints a table of every metric with its unit, then, as the last
line, one JSON object ``{"correct", "attempted", "failed", "metrics"}``.
With ``--trace 0`` the metrics are the end-to-end ones; with
``--trace 1`` half the window runs against a plain server and half
against one started through ``traced_serve.py``, and the metrics are
the per-layer ones. The exit
code is 1 when the oracle rejects an answer and 2 when the program
cannot be set up. See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import (CATALOG_SCALE, DATASET, WORKLOADS,  # noqa: E402
                       RequestStream, poisson_schedule, runtime_noise,
                       statement_pool)

#: Servers spawned per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: The served model: fixed, so every run of a checkout serves the same one.
TRAIN_ARGS = ["--dataset", DATASET, "--catalog-scale", str(CATALOG_SCALE),
              "--queries", "120", "--epochs", "50", "--seed", "0"]

END_TO_END_UNITS = {"req_per_s": "1/s", "latency_p50_ms": "ms",
                    "latency_p90_ms": "ms", "success_rate": "ratio",
                    "learned_rate": "ratio", "setup_s": "s",
                    "server_rss_mb": "MiB"}


#: Tiers answered by the learned model (any precision).
LEARNED_TIERS = ("f64", "f32", "int8")


class SetupError(RuntimeError):
    """The program under test could not be built, trained or started."""


def out_dir() -> Path:
    path = ROOT / ".bench_build" / "perfbench"
    path.mkdir(parents=True, exist_ok=True)
    return path


def ensure_model() -> Path:
    """Train the served checkpoint once per checkout (untimed)."""
    model = out_dir() / "model"
    if (model / "manifest.json").is_file():
        return model
    tmp = out_dir() / f"model.tmp{os.getpid()}"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with open(out_dir() / "train.log", "ab") as log:
        code = subprocess.call(
            [sys.executable, "-m", "repro", "train", *TRAIN_ARGS,
             "--out", str(tmp)], cwd=ROOT, env=env, stdout=log, stderr=log)
    if code != 0 or not (tmp / "manifest.json").is_file():
        raise SetupError(f"training the served model failed (exit {code}); "
                         f"see {out_dir() / 'train.log'}")
    try:
        os.replace(tmp, model)
    except OSError:           # another run finished first; use its model
        shutil.rmtree(tmp, ignore_errors=True)
    return model


# -- driving one server --------------------------------------------------------

class Window:
    """Everything one timed window produced, for scoring after the fact."""

    def __init__(self, workload, seconds: float) -> None:
        self.workload = workload
        self.seconds = seconds
        self.samples = []      # closed loop: client.Sample
        self.ops = []          # open loop: client.Op (in-window only)
        self.threads = []      # server thread counts sampled in the window
        self.rss_mb = None
        self.start = self.end = 0.0
        self.metrics_before = ""
        self.metrics_after = ""


def _warm_statements(server, workload, stream) -> None:
    """Send every statement once so plan and encoder caches hold them."""
    from client import Connection

    conn = Connection(server.port)
    try:
        for statement in range(len(stream.pool)):
            body = stream.body(statement, None if workload.grid else 0)
            sample = conn.send("POST", workload.path, body)
            if not sample.ok:
                raise SetupError(f"warm-up request failed with status "
                                 f"{sample.status}: {sample.body[:200]!r}")
    finally:
        conn.close()


def _sample_threads(server, window: Window, start: float, end: float,
                    scrape: bool) -> threading.Thread:
    """Sample the server's thread count (and /metrics) during the window."""
    def run() -> None:
        time.sleep(max(0.0, start - time.perf_counter()))
        if scrape:
            window.metrics_before = server.get("/metrics")[1].decode()
        while time.perf_counter() < end:
            count = server.threads()
            if count is not None:
                window.threads.append(count)
            time.sleep(0.5)
        if scrape:
            window.metrics_after = server.get("/metrics")[1].decode()
    thread = threading.Thread(target=run, name="sampler")
    thread.start()
    return thread


def drive(server, workload, pool, seed: int, seconds: float,
          scrape: bool = False) -> Window:
    """Warm the server up, then load it for ``seconds``."""
    from client import closed_loop, open_loop

    window = Window(workload, seconds)
    stream = RequestStream(workload, pool, seed)
    if not workload.grid:
        _warm_statements(server, workload, stream)
    start = time.perf_counter() + workload.warmup_s
    end = start + seconds
    window.start, window.end = start, end
    sampler = _sample_threads(server, window, start, end, scrape)
    try:
        if workload.loop == "closed":
            window.samples = closed_loop(server.port, workload.path, stream,
                                         workload.connections, start, end)
        else:
            warm = poisson_schedule(workload.rate, workload.warmup_s, seed,
                                    stream=5)
            timed = poisson_schedule(workload.rate, seconds, seed)
            due = ([start - workload.warmup_s + float(o) for o in warm]
                   + [start + float(o) for o in timed])
            requests = [stream.next() for _ in due]
            ops = open_loop(server.port, workload.path, requests, due,
                            runtime_noise(len(due), seed),
                            workload.connections)
            window.ops = [op for op in ops if start <= op.due < end]
    finally:
        sampler.join()
    window.rss_mb = server.rss_hwm_mb()
    return window


# -- scoring -------------------------------------------------------------------

class Score:
    """Outcome counts and latencies of one window, after the oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.rejected = []         # oracle rejections (answer is wrong)
        self.latencies_ms = []
        self.tier_pairs = {}
        self.lateness_ms = []
        self.feedback_sent = 0
        self.feedback_recorded = 0
        self.feedback_lost = 0     # answered ``recorded: false``
        self.completions = []      # completion times of successful ops

    @property
    def pairs(self) -> int:
        return sum(self.tier_pairs.values())


def _pairs(answer: dict) -> int:
    if "costs" in answer:
        return len(answer["costs"]) * len(answer["plans"])
    return len(answer["plans"])


def _answer_problem(oracle, request, answer) -> str | None:
    if request.profile is None:
        return oracle.check_grid(request.statement, answer)
    return oracle.check_predict(request.statement, request.profile, answer)


def score(window: Window, oracle) -> Score:
    from oracle import Oracle, served_tier
    from stats import lateness

    result = Score()

    def note_answer(request, answer) -> bool:
        problem = _answer_problem(oracle, request, answer)
        if problem is not None:
            result.rejected.append(problem)
            return False
        tier = served_tier(answer["source"], answer["reason"])
        result.tier_pairs[tier] = result.tier_pairs.get(tier, 0) + \
            _pairs(answer)
        return True

    for sample in window.samples:
        result.attempted += 1
        if sample.status:
            result.latencies_ms.append(sample.latency_ms)
        ok = sample.ok
        if ok:
            try:
                answer = json.loads(sample.body)
            except ValueError:
                result.rejected.append("response is not JSON")
                ok = False
            else:
                ok = note_answer(sample.request, answer)
        result.failed += not ok
        if ok:
            result.completions.append(sample.t1)

    def note_feedback(op) -> bool:
        result.feedback_sent += 1
        if not op.feedback.ok:
            return False
        try:
            feedback = json.loads(op.feedback.body)
        except ValueError:
            result.rejected.append("feedback response is not JSON")
            return False
        recorded = feedback.get("recorded")
        if recorded is False:
            # A documented answer: the audit trail no longer holds that
            # prediction (defect 3 in README.md). Counted, not a failure.
            result.feedback_lost += 1
            return True
        if recorded is not True:
            result.rejected.append("feedback answer has no 'recorded' flag")
            return False
        result.feedback_recorded += 1
        problem = Oracle.check_feedback(op.factor, feedback)
        if problem:
            result.rejected.append(problem)
        return problem is None

    for op in window.ops:
        result.attempted += 1
        if op.predict is not None and op.predict.status and (
                op.feedback is None or op.feedback.status):
            result.latencies_ms.append(op.latency_ms)
        ok = (op.answer is not None
              and note_answer(op.predict.request, op.answer))
        ok = op.feedback is not None and note_feedback(op) and ok
        result.failed += not ok
        if ok:
            result.completions.append(op.done)
    result.lateness_ms = [1e3 * late for late in lateness(
        [op.due for op in window.ops], [op.started for op in window.ops])]
    return result


def end_to_end(window: Window, result: Score, setups: list[float]) -> dict:
    from stats import percentile

    lat = result.latencies_ms
    if not lat:
        raise SetupError("no request completed inside the timed window")
    good = result.attempted - result.failed
    learned = sum(result.tier_pairs.get(t, 0) for t in LEARNED_TIERS)
    # Measured span: on the open loop it stretches when the server falls
    # behind the schedule and has to drain after the last arrival.
    span = max(result.completions, default=window.end) - window.start
    return {
        "req_per_s": good / span,
        "latency_p50_ms": percentile(lat, 50),
        "latency_p90_ms": percentile(lat, 90),
        "success_rate": good / max(result.attempted, 1),
        "learned_rate": learned / result.pairs if result.pairs else 0.0,
        "setup_s": statistics.median(setups),
        "server_rss_mb": window.rss_mb,
    }


# -- the run -------------------------------------------------------------------

def _server(model, name: str, spans_out=None):
    from server import Server

    return Server(ROOT, model, out_dir() / f"serve-{name}.log",
                  spans_out=spans_out)


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from repro.data.imdb import build_imdb_catalog

    from oracle import Oracle, Reference
    from meta import run_metadata, write_json

    workload = WORKLOADS[workload_name]
    model = ensure_model()
    catalog = build_imdb_catalog(scale=CATALOG_SCALE)
    pool = statement_pool(catalog, workload.statements, seed)

    setups: list[float] = []
    tag = f"{workload.name}-seed{seed}"
    # A traced run splits its time between an untraced and a traced
    # server, so it costs no more than an untraced run.
    window_s = seconds / 2 if trace else seconds
    if not trace:
        for _ in range(SETUP_SPAWNS - 1):
            spare = _server(model, tag)
            try:
                setups.append(spare.start())
            finally:
                spare.stop(graceful=False)
    server = _server(model, tag)
    try:
        setups.append(server.start())
        window = drive(server, workload, pool, seed, window_s)
    finally:
        server.stop()
    traced = None
    if trace:
        spans_path = out_dir() / f"spans-{tag}.json"
        traced_server = _server(model, tag + "-traced", spans_out=spans_path)
        try:
            traced_server.start()
            traced = drive(traced_server, workload, pool, seed, window_s,
                           scrape=True)
        finally:
            traced_server.stop()

    oracle = Oracle(Reference(model, catalog), pool, workload.profiles)
    result = score(window, oracle)
    metrics = end_to_end(window, result, setups)
    units = dict(END_TO_END_UNITS)
    counted = result
    if trace:
        from attribution import layer_metrics, write_trace_artifacts

        traced_result = score(traced, oracle)
        spans = json.loads(spans_path.read_text())
        layers = layer_metrics(traced, traced_result, spans,
                               untraced_p50=metrics["latency_p50_ms"])
        write_trace_artifacts(out_dir(), tag, traced, spans, layers)
        metrics = {name: value for name, (value, _) in layers.items()}
        units = {name: unit for name, (_, unit) in layers.items()}
        counted = traced_result
        result.rejected += traced_result.rejected

    meta = run_metadata(ROOT, model, workload, seed, seconds, trace,
                        window.threads, result)
    write_json(out_dir() / f"meta-{tag}{'-trace' if trace else ''}.json",
               meta)
    _print_table(workload, traced or window, metrics, units, counted, meta)
    for problem in result.rejected[:5]:
        print(f"oracle rejected: {problem}")
    correct = not result.rejected
    print(json.dumps({
        "correct": correct,
        "attempted": counted.attempted,
        "failed": counted.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in metrics},
    }))
    return 0 if correct else 1


def _print_table(workload, window, metrics, units, result: Score,
                 meta) -> None:
    print(f"# {workload.name}: {workload.why}")
    print(f"# {meta['summary']}")
    from stats import beyond, percentile, slice_rates

    lat = result.latencies_ms
    p90, p99 = percentile(lat, 90), percentile(lat, 99)
    print(f"# attempted {result.attempted}, failed {result.failed}, "
          f"latency samples {len(lat)}: p90 {p90:.3f} ms with "
          f"{beyond(lat, p90)} beyond, p99 {p99:.3f} ms with "
          f"{beyond(lat, p99)} beyond")
    degraded = (1.0 - result.tier_pairs.get("f64", 0) / result.pairs
                if result.pairs else 0.0)
    print(f"# error_rate {result.failed / max(result.attempted, 1):.6g}, "
          f"degraded_rate {degraded:.6g}, pairs by tier {result.tier_pairs}")
    if result.feedback_sent:
        print(f"# feedback recorded {result.feedback_recorded} of "
              f"{result.feedback_sent} sent, {result.feedback_lost} "
              f"answered recorded: false")
    rates = slice_rates(result.completions, window.start, window.seconds)
    print(f"# ok/s by tenth of the window: "
          + " ".join(f"{r:.3g}" for r in rates))
    if result.lateness_ms:
        print(f"# generator lateness p50 "
              f"{percentile(result.lateness_ms, 50):.3f} ms, p99 "
              f"{percentile(result.lateness_ms, 99):.3f} ms")
    width = max(len(n) for n in metrics)
    for name, value in metrics.items():
        print(f"{name:<{width}}  {value:>14.6g}  {units[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true",
                        help="run every workload in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT / 'src'}; "
              f"run from a full checkout", file=sys.stderr)
        return 2
    from server import ServerError

    names = sorted(WORKLOADS) if args.all else [args.workload]
    code = 0
    for name in names:
        try:
            code = max(code, run(name, args.seed, args.seconds,
                                 bool(args.trace)))
        except (SetupError, ServerError) as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
