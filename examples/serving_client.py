"""Minimal client for a running ``repro serve`` instance.

Scores a query's candidate plans under two resource profiles, picks
the cheapest plan, and reports the observed runtime back through the
feedback endpoint — the whole request/response loop documented in
``docs/API.md``, using nothing but the standard library.

Start a server first (see docs/OPERATIONS.md), e.g.::

    python -m repro train --out /tmp/model --queries 40 --epochs 10
    python -m repro serve --model /tmp/model --port 8000

Run with:  python examples/serving_client.py [--server http://127.0.0.1:8000]
"""

import argparse
import json
import urllib.error
import urllib.request

SQL = ("SELECT COUNT(*) FROM title t, movie_keyword mk "
       "WHERE t.id = mk.movie_id AND mk.keyword_id < 40")


def call(server: str, path: str, body: dict | None = None) -> dict:
    """One JSON round-trip; raises with the server's error message."""
    data = None if body is None else json.dumps(body).encode("utf-8")
    request = urllib.request.Request(
        server + path, data=data,
        headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(request, timeout=30.0) as response:
            return json.loads(response.read())
    except urllib.error.HTTPError as exc:
        detail = json.loads(exc.read())
        raise SystemExit(f"{path} failed ({exc.code} {detail.get('type')}): "
                         f"{detail.get('error')}")


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--server", default="http://127.0.0.1:8000",
                        help="base URL of the running repro serve")
    args = parser.parse_args()
    server = args.server.rstrip("/")

    # 1. Score the query's candidate plans under one resource profile.
    #    A deadline keeps tail latency bounded: past it the server
    #    degrades to its analytic estimate instead of blocking.
    result = call(server, "/v1/predict", {
        "sql": SQL,
        "resources": {"executors": 2, "executor_cores": 2, "memory_gb": 4},
        "deadline_ms": 250,
    })
    print(f"model {result['model_version']} scored "
          f"{len(result['plans'])} plans via '{result['source']}':")
    for plan in result["plans"]:
        marker = "  <-- chosen" if plan["plan"] == result["chosen"] else ""
        print(f"  {plan['plan']:40s} {plan['seconds']:8.3f}s{marker}")

    # 2. The same plans across resource profiles in one fused call —
    #    how cost changes when the cluster grows.
    grid = call(server, "/v1/predict_grid", {
        "sql": SQL,
        "profiles": [{"executors": 2}, {"executors": 4}, {"executors": 8}],
    })
    print("\ncheapest plan per profile:")
    for profile, row in zip((2, 4, 8), grid["costs"]):
        best = min(range(len(row)), key=row.__getitem__)
        print(f"  executors={profile}: {grid['plans'][best]} "
              f"({row[best]:.3f}s)")

    # 3. Close the loop: report the runtime we "observed" for the
    #    chosen plan so the server's quality tracking (q-error, drift,
    #    SLOs) measures this model against reality.
    chosen = next(p for p in result["plans"]
                  if p["plan"] == result["chosen"])
    feedback = call(server, "/v1/feedback", {
        "request_id": result["request_id"],
        "index": chosen["feedback_index"],
        "observed_seconds": chosen["seconds"] * 1.07,
    })
    print(f"\nfeedback recorded: q-error {feedback['q_error']:.3f} "
          f"for request {feedback['request_id']}")

    # 4. Operational state: every model's version, learned-stage gate,
    #    and micro-batcher accounting.
    health = call(server, "/healthz")
    for name, model in health["models"].items():
        gate = model["gate"]
        print(f"health: model {name!r} version {model['version']} "
              f"gate={gate['state']} (last trip: {gate['cause']}) "
              f"batched={model['batcher']['coalesced_requests']} requests "
              f"in {model['batcher']['batches']} fused batches")


if __name__ == "__main__":
    main()
