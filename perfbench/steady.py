#!/usr/bin/env python3
"""Steadiness check: repeat runs and compare their spread with the bounds.

Usage (from the repository root)::

    python3 perfbench/steady.py --workload select_hot --runs 10
    python3 perfbench/steady.py --all --runs 10 --sets 2

Each run is ``perfbench/run.py --trace 0`` with its own seed (``--seed``,
``--seed + 1``, ...). For every end-to-end metric the command prints the
median and quartiles (``statistics.quantiles(values, n=4)``) and the
inter-quartile spread as a share of the median, against the metric's
bound in ``BENCHMARK.json``. With ``--sets 2`` the same seeds run twice
and the second set's median must not be worse than the first's by more
than the bound. Exits 1 when a spread (``setup_s`` excepted) or a
median shift exceeds its bound, or when any operation failed: the
workloads are chosen so that none does, and a failure count that varies
from set to set is not steady.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from stats import quartiles, spread, worse_by  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def one_run(workload: str, seed: int, seconds: int) -> dict:
    """The result line of one untraced run."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"run failed (exit {proc.returncode}) for "
                         f"{workload} seed {seed}:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def run_set(workload: str, seeds: list[int], seconds: int) -> dict:
    values: dict[str, list[float]] = {"attempted": [], "failed": []}
    for seed in seeds:
        result = one_run(workload, seed, seconds)
        for name in ("attempted", "failed"):
            values[name].append(result[name])
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print(f"  {workload} seed {seed} done", file=sys.stderr, flush=True)
    return values


def report(workload: str, sets: list[dict], spec: dict) -> bool:
    ok = True
    print(f"\n== {workload} ({len(sets[0]['req_per_s'])} runs per set)")
    for index, values in enumerate(sets, 1):
        failed = sum(values["failed"])
        ok &= failed == 0
        print(f"set {index}: {failed} of {sum(values['attempted'])} "
              f"operations failed{'' if failed == 0 else '  FAILURES'}")
    print(f"{'metric':<16} {'set':>3} {'q1':>11} {'median':>11} "
          f"{'q3':>11} {'spread':>8} {'bound':>6}  verdict")
    for metric in spec["end_to_end"]:
        name, bound = metric["name"], metric["bound"]
        medians = []
        for index, values in enumerate(sets, 1):
            q1, med, q3 = quartiles(values[name])
            medians.append(med)
            width = spread(values[name])
            if name == "setup_s":
                verdict = "reported"
            elif width > bound:
                verdict, ok = "TOO WIDE", False
            elif width > bound / 3:
                verdict = "within bound, above a third"
            else:
                verdict = "steady"
            print(f"{name:<16} {index:>3} {q1:>11.5g} {med:>11.5g} "
                  f"{q3:>11.5g} {width:>8.3%} {bound:>6.0%}  {verdict}")
            print(f"{'':<16}     runs: "
                  + " ".join(f"{v:.5g}" for v in values[name]))
        if len(medians) > 1:
            shift = worse_by(medians[0], medians[1], metric["better"])
            agree = shift <= bound
            ok &= agree
            print(f"{name:<16} second median worse by {shift:+.3%} "
                  f"(bound {bound:.0%}): {'agree' if agree else 'DISAGREE'}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None,
                        help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args(argv)
    if not args.all and not args.workload:
        parser.error("give --workload NAME or --all")
    if args.runs < 2:
        parser.error("need at least two runs for quartiles")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    seeds = list(range(args.seed, args.seed + args.runs))
    names = ([w["name"] for w in spec["workloads"]] if args.all
             else [args.workload])
    ok = True
    for name in names:
        sets = [run_set(name, seeds, seconds) for _ in range(args.sets)]
        ok &= report(name, sets, spec)
    print("\nverdict:", "steady within bounds" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
