"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``experiment``
    Run the end-to-end pipeline (catalog → workload → collection →
    training) for one model variant and print the paper's four metrics.
``train``
    Same pipeline, but persist the trained cost predictor to a
    directory for later use.
``predict``
    Load a persisted predictor and estimate the cost of an ad-hoc SQL
    query's candidate plans under a chosen resource allocation.
``workload``
    Generate and print a random SQL workload for a dataset.
``doctor``
    Validate a persisted predictor: verify the checkpoint manifest
    (schema version, per-file SHA-256) and run a self-test prediction,
    plus a telemetry self-check (spans + metrics recorded end to end).
``metrics``
    Render the telemetry of a previous run: load a run artifact written
    by ``--emit-telemetry`` (or ``TelemetryReport.write``) and print
    its metrics as a table, JSON, Prometheus text, or Chrome/Perfetto
    trace-event JSON (``--format trace``).
``top``
    Terminal health snapshot of a run artifact: latency percentiles,
    q-error quality scopes, drift state, SLO error-budget burn rates,
    and the learned-stage gate/audit posture. ``--once`` for one frame,
    otherwise refreshes every ``--interval`` seconds.
``audit``
    Query the per-prediction audit trail: the most recent records
    (``--last N``), one request (``--request ID``), as a table or JSONL
    (``--json``). Reads either a dedicated audit dump or a full
    telemetry event stream.
``serve``
    Run the HTTP prediction service: load one or more checkpoints and
    serve predict/predict-grid/feedback plus health, metrics, and the
    hot-swap admin endpoints. See ``docs/OPERATIONS.md`` and
    ``docs/API.md``.
``deploy``
    Operate a running ``repro serve`` instance over HTTP: stage a
    candidate checkpoint for shadow scoring (default), force-promote
    it (``--promote``), or roll back to the previous incumbent
    (``--rollback``).

``experiment``, ``train``, and ``predict`` accept ``--emit-telemetry
PATH``: the run executes under an attached telemetry bundle, streaming
structured events to ``PATH`` as JSONL and appending a final
``telemetry_report`` event with the aggregate metrics and span trees.
"""

from __future__ import annotations

import argparse
import math
import signal
import sys


from repro import obs
from repro.cluster.resources import PAPER_CLUSTER
from repro.core.persistence import load_predictor, save_predictor, verify_checkpoint
from repro.core.predictor import CostPredictor
from repro.core.selector import PlanSelector
from repro.errors import ReproError
from repro.eval.experiments import ExperimentPipeline, ExperimentScale
from repro.eval.reporting import render_table
from repro.plan.builder import analyze
from repro.sql.parser import parse as parse_sql
from repro.workload.generator import QueryGenerator, WorkloadConfig

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Build the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resource-aware deep cost model (ICDE 2022 reproduction)")
    sub = parser.add_subparsers(dest="command", required=True)

    exp = sub.add_parser("experiment", help="run one training experiment")
    _pipeline_args(exp)
    _telemetry_arg(exp)
    exp.add_argument("--variant", default="RAAL",
                     help="RAAL | NE-LSTM | NA-LSTM | RAAC | OH-LSTM")
    exp.add_argument("--no-resource-attention", action="store_true",
                     help="train the resource-blind ablation")

    train = sub.add_parser("train", help="train and persist a cost predictor")
    _pipeline_args(train)
    _telemetry_arg(train)
    train.add_argument("--out", required=True, help="output directory")

    predict = sub.add_parser("predict", help="estimate plan costs for a SQL query")
    _telemetry_arg(predict)
    predict.add_argument("--model", required=True, help="persisted predictor directory")
    predict.add_argument("--dataset", default="imdb", choices=["imdb", "tpch"])
    predict.add_argument("--catalog-scale", type=float, default=0.15)
    predict.add_argument("--sql", required=True)
    predict.add_argument("--memory-gb", type=float, default=4.0)
    predict.add_argument("--executors", type=int, default=2)
    predict.add_argument("--executor-cores", type=int, default=2)
    predict.add_argument(
        "--deadline-ms", type=float, default=None,
        help="per-prediction latency budget; past it the learned model "
             "is abandoned and the analytic GPSJ estimate is served")

    doctor = sub.add_parser(
        "doctor", help="validate a persisted predictor checkpoint")
    doctor.add_argument("directory", help="checkpoint directory to validate")
    doctor.add_argument("--no-selftest", action="store_true",
                        help="skip the self-test prediction (manifest check only)")

    metrics = sub.add_parser(
        "metrics", help="render the telemetry report of a previous run")
    metrics.add_argument("artifact",
                         help="run artifact: --emit-telemetry JSONL stream "
                              "or a JSON report file")
    metrics.add_argument("--format", default="table",
                         choices=["table", "json", "prom", "trace"],
                         help="output format (default: table; 'trace' emits "
                              "Chrome/Perfetto trace-event JSON of the "
                              "recorded span trees)")

    top = sub.add_parser(
        "top", help="terminal health snapshot of a run's telemetry")
    top.add_argument("artifact",
                     help="run artifact: --emit-telemetry JSONL stream or a "
                          "JSON report file")
    top.add_argument("--once", action="store_true",
                     help="render a single snapshot and exit (default: "
                          "refresh until interrupted)")
    top.add_argument("--interval", type=float, default=2.0,
                     help="seconds between refreshes (default: 2)")

    audit = sub.add_parser(
        "audit", help="query the per-prediction audit trail of a run")
    audit.add_argument("artifact",
                       help="audit JSONL (AuditTrail.write_jsonl) or a "
                            "telemetry event stream containing audit events")
    audit.add_argument("--last", type=int, default=10,
                       help="show the N most recent records (default: 10)")
    audit.add_argument("--request", default=None,
                       help="show only records of this request id")
    audit.add_argument("--json", action="store_true",
                       help="emit records as JSONL instead of a table")

    serve = sub.add_parser(
        "serve", help="run the HTTP prediction service")
    serve.add_argument(
        "--model", action="append", default=[], metavar="[ID=]DIR",
        help="checkpoint directory to serve, optionally prefixed with a "
             "model id (default id: 'default'); repeat for multi-tenant "
             "serving")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 picks a free port)")
    serve.add_argument("--dataset", default="imdb", choices=["imdb", "tpch"])
    serve.add_argument("--catalog-scale", type=float, default=0.15)
    serve.add_argument(
        "--deadline-ms", type=float, default=None,
        help="default per-request latency budget when the request body "
             "carries no deadline_ms")
    serve.add_argument("--plan-cache-size", type=int, default=256,
                       help="candidate-plan LRU entries (distinct SQL)")

    deploy = sub.add_parser(
        "deploy", help="hot-swap models on a running serve instance")
    deploy.add_argument("checkpoint", nargs="?", default=None,
                        help="candidate checkpoint directory (not needed "
                             "with --promote/--rollback)")
    deploy.add_argument("--server", default="http://127.0.0.1:8000",
                        help="base URL of the running repro serve")
    deploy.add_argument("--model", default="default", help="target model id")
    deploy.add_argument(
        "--shadow-requests", type=int, default=32,
        help="live fused batches the candidate must shadow-score before "
             "the promotion gate is evaluated")
    deploy.add_argument(
        "--max-qerror", type=float, default=1.5,
        help="promotion gate: max mean candidate-vs-incumbent q-error")
    deploy.add_argument("--no-auto-promote", action="store_true",
                        help="stage and shadow only; promote manually with "
                             "--promote")
    deploy.add_argument("--promote", action="store_true",
                        help="force-promote the shadowing candidate now")
    deploy.add_argument("--rollback", action="store_true",
                        help="swap the previous incumbent back in")

    workload = sub.add_parser("workload", help="generate a random workload")
    workload.add_argument("--dataset", default="imdb", choices=["imdb", "tpch"])
    workload.add_argument("--catalog-scale", type=float, default=0.15)
    workload.add_argument("--queries", type=int, default=10)
    workload.add_argument("--max-joins", type=int, default=5)
    workload.add_argument("--workload-class", default="mixed",
                          choices=["numeric", "string", "mixed"])
    workload.add_argument("--seed", type=int, default=0)
    return parser


def _pipeline_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--dataset", default="imdb", choices=["imdb", "tpch"])
    parser.add_argument("--queries", type=int, default=120)
    parser.add_argument("--epochs", type=int, default=50)
    parser.add_argument("--catalog-scale", type=float, default=0.15)
    parser.add_argument("--seed", type=int, default=0)


def _telemetry_arg(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--emit-telemetry", metavar="PATH", default=None,
        help="stream structured telemetry events (JSONL) to PATH and "
             "append a final telemetry_report event; render it later "
             "with 'repro metrics PATH'")


def _make_pipeline(args: argparse.Namespace) -> ExperimentPipeline:
    scale = ExperimentScale(
        catalog_scale=args.catalog_scale,
        num_queries=args.queries,
        epochs=args.epochs,
        seed=args.seed,
    )
    return ExperimentPipeline(dataset=args.dataset, scale=scale)


def _cmd_experiment(args: argparse.Namespace) -> int:
    pipeline = _make_pipeline(args)
    print(f"collecting records for {args.queries} {args.dataset} queries ...")
    print(f"  {len(pipeline.records)} records "
          f"({len(pipeline.collector.skipped)} queries skipped)")
    trained = pipeline.train_variant(
        args.variant, resource_aware=not args.no_resource_attention)
    print(render_table(
        f"{trained.name} on {args.dataset} (test split)",
        ["metric", "value"],
        [["RE", trained.metrics.re], ["MSE", trained.metrics.mse],
         ["COR", trained.metrics.cor], ["R2", trained.metrics.r2],
         ["train seconds", trained.train_seconds]]))
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    pipeline = _make_pipeline(args)
    trained = pipeline.train_variant("RAAL")
    predictor = CostPredictor(trained.encoder, trained.trainer)
    save_predictor(predictor, args.out)
    print(f"saved predictor to {args.out}  ({trained.metrics})")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    from repro.data.imdb import build_imdb_catalog
    from repro.data.tpch import build_tpch_catalog
    from repro.serving.registry import default_guard_builder

    builder = build_imdb_catalog if args.dataset == "imdb" else build_tpch_catalog
    catalog = builder(scale=args.catalog_scale)
    predictor = load_predictor(args.model)
    resources = PAPER_CLUSTER
    resources = type(resources)(
        nodes=resources.nodes, cores_per_node=resources.cores_per_node,
        executors=args.executors, executor_cores=args.executor_cores,
        executor_memory_gb=args.memory_gb,
        network_throughput_mbps=resources.network_throughput_mbps,
        disk_throughput_mbps=resources.disk_throughput_mbps)

    # Guarded prediction, wired as `repro serve` wires it: a bad
    # checkpoint or unseen operator degrades to the analytic GPSJ
    # estimate instead of crashing plan selection; --deadline-ms bounds
    # the learned stage the same way.
    guarded = default_guard_builder(
        catalog, workload=args.dataset,
        default_deadline_ms=args.deadline_ms)(args.dataset)(predictor)
    query = analyze(parse_sql(args.sql), catalog)
    selector = PlanSelector(guarded, catalog)
    result = selector.select(query, resources)
    rows = [[p.label, f"{c:.3f}", "<-- chosen" if p is result.chosen else ""]
            for p, c in zip(result.candidates, result.predicted_costs)]
    print(render_table(
        f"predicted costs under {resources} (source: {result.cost_source})",
        ["plan", "predicted seconds", ""], rows))
    if result.degraded:
        print(f"note: learned model degraded to {result.cost_source} — "
              f"{result.degradation_reason}")
    return 0


def _cmd_doctor(args: argparse.Namespace) -> int:
    report = verify_checkpoint(args.directory)
    print(report.summary())
    if not report.ok:
        return 1
    if args.no_selftest:
        return 0
    # Self-test: load the checkpoint and predict one trivial query's
    # plans, proving the weights, vocabulary, and encoder round-trip
    # into a usable predictor — not just intact bytes. The prediction
    # runs under a throwaway telemetry bundle so the doctor also proves
    # the instrumentation records spans and metrics end to end.
    from repro.data.imdb import build_imdb_catalog
    from repro.plan.enumerator import enumerate_plans
    from repro.serving.registry import default_guard_builder

    predictor = load_predictor(args.directory)
    catalog = build_imdb_catalog(scale=0.05)
    query = analyze(parse_sql("select count(*) from title t"), catalog)
    plans = enumerate_plans(query, catalog)
    telemetry = obs.Telemetry.create()
    with obs.attached(telemetry):
        seconds = predictor.predict(plans[0], PAPER_CLUSTER)
    if not math.isfinite(seconds) or seconds < 0:
        print(f"self-test FAILED: predicted {seconds}")
        return 1
    print(f"self-test prediction OK ({seconds:.3f}s for a trivial scan plan)")
    root = telemetry.tracer.last_root()
    stages_ok = (root is not None and root.find("encode") is not None
                 and root.find("forward") is not None)
    metrics_ok = "predict.requests_total" in telemetry.registry
    if not (stages_ok and metrics_ok):
        print("telemetry self-check FAILED: prediction produced no "
              f"span tree/metrics (root={root!r})")
        return 1
    print(f"telemetry self-check OK (span tree '{root.name}' with "
          f"encode/forward stages, {len(telemetry.registry)} metrics)")
    # Overload-resilience posture: run the same prediction through the
    # guard `repro serve` builds (GPSJ, gate, quality, audit, SLO) with
    # a 1 s deadline and report the resulting health state. A healthy
    # checkpoint must serve from the learned stage, gate closed.
    guarded = default_guard_builder(catalog, default_deadline_ms=1000.0)(
        "doctor")(predictor)
    explained = guarded.predict_explained(plans[0], PAPER_CLUSTER)
    health = guarded.health_state()
    gate = health["gate"]
    print(f"health state: gate={gate['state']} "
          f"breakers={health['breakers']}")
    if explained.source != "raal" or gate["state"] != "closed":
        # Name the trip cause: OPERATIONS.md's triage table keys off it.
        print(f"health self-check FAILED: gate {gate['state']} "
              f"(cause: {gate['cause']}), served from "
              f"'{explained.source}' ({explained.reason})")
        return 1
    print("health self-check OK (served by the learned stage, gate "
          "closed)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving import PredictionService, ServingConfig
    from repro.serving import serve as http_serve

    if not args.model:
        print("error: at least one --model [ID=]DIR is required",
              file=sys.stderr)
        return 2
    config = ServingConfig(
        dataset=args.dataset, catalog_scale=args.catalog_scale,
        default_deadline_ms=args.deadline_ms,
        plan_cache_size=args.plan_cache_size)
    service = PredictionService(config)
    for spec in args.model:
        model_id, _, directory = spec.rpartition("=")
        model_id = model_id or "default"
        version = service.load_model(directory, model_id=model_id)
        print(f"serving model {model_id!r} version {version} "
              f"from {directory}")
    # A shell starts background jobs with SIGINT ignored, so install the
    # interrupt handler explicitly; SIGTERM drains the same way. Both go
    # in before the first connection is accepted, so no signal can land
    # while the default (kill) or ignored disposition is still in place.
    previous = {sig: signal.signal(sig, signal.default_int_handler)
                for sig in (signal.SIGINT, signal.SIGTERM)}
    server = None
    interrupted = False
    try:
        server = http_serve(service, host=args.host, port=args.port,
                            background=True)
        print(f"repro serve listening on http://{args.host}:{server.port}",
              flush=True)
        while True:
            server._thread.join(1.0)
    except KeyboardInterrupt:
        interrupted = True
    finally:
        # Drain once: a further SIGINT/SIGTERM must not abort close()
        # (socketserver's shutdown wait) with a traceback.
        for sig in previous:
            signal.signal(sig, signal.SIG_IGN)
        if interrupted:
            print("shutting down ...", flush=True)
        (service if server is None else server).close()
        for sig, handler in previous.items():
            signal.signal(sig, handler)
    return 0


def _http_json(url: str, body: dict) -> tuple[int, dict]:
    """POST JSON, returning (status, parsed body) without raising."""
    import json as _json
    import urllib.error
    import urllib.request

    request = urllib.request.Request(
        url, data=_json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=60.0) as response:
            return response.status, _json.loads(response.read())
    except urllib.error.HTTPError as exc:
        try:
            payload = _json.loads(exc.read())
        except ValueError:
            payload = {"error": str(exc)}
        return exc.code, payload
    except OSError as exc:
        raise ReproError(
            f"cannot reach serve instance at {url}: {exc}") from exc


def _cmd_deploy(args: argparse.Namespace) -> int:
    base = args.server.rstrip("/")
    if args.promote:
        status, body = _http_json(f"{base}/admin/promote",
                                  {"model": args.model, "force": True})
    elif args.rollback:
        status, body = _http_json(f"{base}/admin/rollback",
                                  {"model": args.model})
    else:
        if not args.checkpoint:
            print("error: a checkpoint directory is required unless "
                  "--promote or --rollback is given", file=sys.stderr)
            return 2
        import os as _os

        status, body = _http_json(f"{base}/admin/deploy", {
            "model": args.model,
            "checkpoint": _os.path.abspath(args.checkpoint),
            "shadow_requests": args.shadow_requests,
            "max_qerror": args.max_qerror,
            "auto_promote": not args.no_auto_promote,
        })
    if status != 200:
        print(f"error ({status} {body.get('type', '?')}): "
              f"{body.get('error', body)}", file=sys.stderr)
        return 1
    state = body.get("state", "?")
    version = body.get("version", "?")
    print(f"model {args.model!r}: {state} (version {version})")
    if state == "shadowing":
        print(f"  candidate shadows live traffic; gate: mean q-error vs "
              f"incumbent <= {args.max_qerror} over "
              f">= {args.shadow_requests} batches")
        if args.no_auto_promote:
            print("  promote manually: repro deploy --promote "
                  f"--model {args.model} --server {base}")
    return 0


def _cmd_workload(args: argparse.Namespace) -> int:
    from repro.data.imdb import build_imdb_catalog
    from repro.data.tpch import build_tpch_catalog

    builder = build_imdb_catalog if args.dataset == "imdb" else build_tpch_catalog
    catalog = builder(scale=args.catalog_scale)
    generator = QueryGenerator(
        catalog,
        WorkloadConfig(max_joins=args.max_joins, workload=args.workload_class),
        seed=args.seed)
    for sql in generator.generate(args.queries):
        print(sql + ";")
    return 0


def _cmd_metrics(args: argparse.Namespace) -> int:
    report = obs.load_report(args.artifact)
    if args.format == "json":
        print(report.to_json())
    elif args.format == "prom":
        print(report.to_prometheus(), end="")
    elif args.format == "trace":
        print(report.to_chrome_trace())
    else:
        print(report.render())
    return 0


def _metric_value(metrics: dict, name: str, default: float = 0.0) -> float:
    state = metrics.get(name)
    if not state or "value" not in state:
        return default
    return float(state["value"])


def _render_top(artifact: str) -> str:
    """One ``repro top`` frame: latency, quality, SLO burn, health."""
    from repro.obs.metrics import quantile_from_snapshot
    from repro.reliability import GATE_STATES, TRIP_CAUSES

    report = obs.load_report(artifact)
    metrics = report.metrics
    sections: list[str] = []

    latency_rows = []
    for name in sorted(metrics):
        state = metrics[name]
        if state.get("kind") != "histogram" or not name.endswith("_seconds"):
            continue
        count = state.get("count") or 0
        if not count:
            continue
        mean = state["sum"] / count

        def q(quantile: float, _state=state) -> str:
            value = quantile_from_snapshot(_state, quantile)
            return f"{value * 1e3:.2f}" if math.isfinite(value) else "-"

        latency_rows.append([name, str(count), f"{mean * 1e3:.2f}",
                             q(0.50), q(0.95), q(0.99)])
    if latency_rows:
        sections.append(render_table(
            "latency (ms)", ["histogram", "count", "mean", "p50", "p95", "p99"],
            latency_rows))

    quality_rows = []
    scopes = sorted({name.rsplit(".", 1)[0] for name in metrics
                     if name.endswith(".qerror_mean")})
    for scope in scopes:
        quality_rows.append([
            scope,
            f"{_metric_value(metrics, f'{scope}.qerror_mean'):.3f}",
            f"{_metric_value(metrics, f'{scope}.qerror_p50'):.3f}",
            f"{_metric_value(metrics, f'{scope}.qerror_p95'):.3f}",
        ])
    if quality_rows:
        feedback = _metric_value(metrics, "quality.feedback_total")
        drifting = _metric_value(metrics, "quality.drift_state") > 0
        detections = _metric_value(metrics, "quality.drift_detected_total")
        quality_rows.append([
            "drift", "DRIFTING" if drifting else "stable",
            f"detections={detections:g}",
            f"feedback={feedback:g}"])
        sections.append(render_table(
            "prediction quality (q-error)",
            ["scope", "mean", "p50", "p95"], quality_rows))

    slo_rows = []
    slo_names = sorted({name.split(".")[1] for name in metrics
                        if name.startswith("slo.") and name.endswith(".alert")})
    for slo_name in slo_names:
        alerting = _metric_value(metrics, f"slo.{slo_name}.alert") > 0
        slo_rows.append([
            slo_name,
            f"{_metric_value(metrics, f'slo.{slo_name}.burn_fast'):.2f}",
            f"{_metric_value(metrics, f'slo.{slo_name}.burn_slow'):.2f}",
            "ALERT" if alerting else "ok"])
    if slo_rows:
        sections.append(render_table(
            "SLO error-budget burn", ["slo", "fast", "slow", "state"],
            slo_rows))

    gate_state = int(_metric_value(metrics, "health.state"))
    trips = " ".join(
        f"{cause}={_metric_value(metrics, f'gate.{cause}_trips_total'):g}"
        for cause in TRIP_CAUSES)
    health_rows = [
        ["gate", GATE_STATES[gate_state]
         if 0 <= gate_state < len(GATE_STATES) else "unknown"],
        ["gate trips", trips],
        ["guarded requests",
         f"{_metric_value(metrics, 'guard.requests_total'):g}"],
        ["degraded answers",
         f"{_metric_value(metrics, 'guard.degraded_total'):g}"],
        ["audit records",
         f"{_metric_value(metrics, 'audit.records_total'):g} "
         f"(ring {_metric_value(metrics, 'audit.ring_size'):g})"],
        ["observations",
         f"{_metric_value(metrics, 'audit.observations_total'):g}"],
    ]
    sections.append(render_table("health", ["signal", "value"], health_rows))
    return "\n\n".join(sections)


def _cmd_top(args: argparse.Namespace) -> int:
    import time as _time

    if args.once:
        print(_render_top(args.artifact))
        return 0
    try:
        while True:
            frame = _render_top(args.artifact)
            # Clear + home, then the frame: a cheap terminal dashboard.
            print(f"\x1b[2J\x1b[H{frame}", flush=True)
            _time.sleep(max(args.interval, 0.1))
    except KeyboardInterrupt:
        return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    from repro.obs.audit import load_audit_records

    records = load_audit_records(args.artifact)
    if args.request is not None:
        records = [r for r in records if r.request_id == args.request]
    if args.last > 0:
        records = records[-args.last:]
    if args.json:
        import json as _json

        for record in records:
            print(_json.dumps(record.to_dict(), sort_keys=True))
        return 0

    def fmt(value, spec=".4f") -> str:
        return format(value, spec) if value is not None else "-"

    rows = [[r.request_id, str(r.index), r.source or "-", r.tier or "-",
             fmt(r.prediction_seconds), fmt(r.observed_seconds),
             fmt(r.q_error, ".3f"),
             fmt(r.latency_seconds * 1e3 if r.latency_seconds is not None
                 else None, ".2f"),
             (r.plan_fingerprint or "-")[:12]]
            for r in records]
    print(render_table(
        f"audit trail ({len(records)} records)",
        ["request", "i", "source", "tier", "predicted_s", "observed_s",
         "q_error", "latency_ms", "fingerprint"],
        rows or [["(none)"] + [""] * 8]))
    return 0


_COMMANDS = {
    "experiment": _cmd_experiment,
    "train": _cmd_train,
    "predict": _cmd_predict,
    "doctor": _cmd_doctor,
    "metrics": _cmd_metrics,
    "top": _cmd_top,
    "audit": _cmd_audit,
    "serve": _cmd_serve,
    "deploy": _cmd_deploy,
    "workload": _cmd_workload,
}


def _run_command(args: argparse.Namespace) -> int:
    """Dispatch one command, under telemetry when ``--emit-telemetry``.

    The final ``telemetry_report`` event (aggregate metrics, span
    trees, event tallies) is appended even when the command fails —
    a degraded run's telemetry is exactly the telemetry worth keeping.
    """
    emit_path = getattr(args, "emit_telemetry", None)
    if not emit_path:
        return _COMMANDS[args.command](args)
    telemetry = obs.Telemetry.create(events_path=emit_path)
    try:
        with obs.attached(telemetry):
            return _COMMANDS[args.command](args)
    finally:
        report = obs.TelemetryReport.from_telemetry(telemetry)
        telemetry.events.emit("obs", "telemetry_report",
                              report=report.to_dict())
        telemetry.close()


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code.

    Library errors (:class:`~repro.errors.ReproError`) exit non-zero
    with a one-line message instead of a traceback — a corrupt
    checkpoint or bad SQL is an operator problem, not a crash.
    """
    args = build_parser().parse_args(argv)
    try:
        return _run_command(args)
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
