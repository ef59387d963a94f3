"""Correctness oracle for served answers.

The reference is computed in the benchmark process, never by the
server: an unguarded float64 ``load_predictor`` of the served
checkpoint, ``GPSJCostModel`` over the same catalog, and the guard's
static heuristic. Each answer is checked against the reference of the
tier its provenance names, within that tier's budget, and its plan
labels, chosen plan and grid shape must match what the benchmark
enumerated itself.
"""

from __future__ import annotations

import re

import numpy as np

#: Relative error budget per serving tier. f64 allows only rounding
#: differences from batch composition; f32 and int8 are the documented
#: tier budgets (0.5% and the accuracy canary's 5%); the analytic
#: stages are deterministic.
TIER_RTOL = {"f64": 1e-6, "f32": 5e-3, "int8": 5e-2,
             "gpsj": 1e-9, "heuristic": 1e-9}
TIERS = tuple(TIER_RTOL)

_DEGRADED = re.compile(r"degraded_precision:(\w+)")


def served_tier(source: str | None, reason: str | None) -> str | None:
    """The tier an answer's ``source``/``reason`` provenance names."""
    if source == "raal":
        match = _DEGRADED.search(reason or "")
        return match.group(1) if match else "f64"
    if source in ("gpsj", "heuristic"):
        return source
    return None


def resource_profile(fields: dict):
    """The profile the service builds from a request's resource object."""
    from repro.cluster.resources import PAPER_CLUSTER, ResourceProfile

    values = {k: getattr(PAPER_CLUSTER, k) for k in (
        "nodes", "cores_per_node", "executors", "executor_cores",
        "executor_memory_gb", "network_throughput_mbps",
        "disk_throughput_mbps")}
    fields = dict(fields)
    if "memory_gb" in fields:
        fields["executor_memory_gb"] = fields.pop("memory_gb")
    values.update(fields)
    return ResourceProfile(**values)


class Reference:
    """Per-tier reference cost grids, ``(profiles, plans)`` each."""

    def __init__(self, model_dir, catalog) -> None:
        from repro.baselines.gpsj import GPSJCostModel
        from repro.core.persistence import load_predictor
        from repro.core.predictor import PredictorConfig
        from repro.reliability.guard import static_heuristic_cost

        self.predictor = load_predictor(str(model_dir)).configured(
            PredictorConfig(precision="f64", factor_grids=True))
        self.gpsj = GPSJCostModel(catalog)
        self.heuristic = static_heuristic_cost

    def grid(self, kind: str, plans, profiles) -> np.ndarray:
        if kind == "raal":
            return np.asarray(self.predictor.predict_grid(plans, profiles))
        estimate = self.gpsj.estimate if kind == "gpsj" else self.heuristic
        return np.array([[estimate(p, r) for p in plans] for r in profiles])


class Oracle:
    """Checks answers for one statement pool and profile set.

    ``reference`` needs one method, ``grid(kind, plans, profiles)`` with
    ``kind`` in ``raal``/``gpsj``/``heuristic``, so tests can inject a
    synthetic one. Reference grids are computed once per statement.
    """

    def __init__(self, reference, pool, profiles) -> None:
        self.reference = reference
        self.pool = pool
        self.profiles = [resource_profile(p) for p in profiles]
        self._grids: dict[tuple[str, int], np.ndarray] = {}

    def _expected(self, tier: str, statement: int) -> np.ndarray:
        kind = tier if tier in ("gpsj", "heuristic") else "raal"
        key = (kind, statement)
        grid = self._grids.get(key)
        if grid is None:
            grid = self.reference.grid(kind, self.pool[statement].plans,
                                       self.profiles)
            self._grids[key] = grid
        return grid

    @staticmethod
    def _compare(tier: str, got, want) -> str | None:
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return f"shape {got.shape} != expected {want.shape}"
        if not np.all(np.isfinite(got)):
            return "non-finite cost"
        rel = np.abs(got - want) / np.maximum(np.abs(want), 1e-12)
        worst = float(rel.max()) if rel.size else 0.0
        if worst > TIER_RTOL[tier]:
            return (f"{tier} answer off by {worst:.3g} relative "
                    f"(budget {TIER_RTOL[tier]:g})")
        return None

    def _tier(self, answer: dict) -> tuple[str | None, str | None]:
        tier = served_tier(answer.get("source"), answer.get("reason"))
        if tier not in TIER_RTOL:
            return None, (f"unknown provenance source={answer.get('source')!r}"
                          f" reason={answer.get('reason')!r}")
        return tier, None

    def check_predict(self, statement: int, profile: int,
                      answer: dict) -> str | None:
        """Reason a ``/v1/predict`` answer is wrong, or ``None``."""
        try:
            tier, problem = self._tier(answer)
            if problem:
                return problem
            labels = [p["plan"] for p in answer["plans"]]
            if labels != self.pool[statement].labels:
                return "plan labels differ from the enumerated candidates"
            costs = [p["seconds"] for p in answer["plans"]]
            problem = self._compare(
                tier, costs, self._expected(tier, statement)[profile])
            if problem:
                return problem
            if answer["chosen"] != labels[int(np.argmin(costs))]:
                return "chosen plan is not the cheapest answered plan"
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed answer: {exc!r}"
        return None

    def check_grid(self, statement: int, answer: dict) -> str | None:
        """Reason a ``/v1/predict_grid`` answer is wrong, or ``None``."""
        try:
            tier, problem = self._tier(answer)
            if problem:
                return problem
            if answer["plans"] != self.pool[statement].labels:
                return "plan labels differ from the enumerated candidates"
            if answer["profiles"] != len(self.profiles):
                return (f"grid has {answer['profiles']} profiles, sent "
                        f"{len(self.profiles)}")
            return self._compare(tier, answer["costs"],
                                 self._expected(tier, statement))
        except (KeyError, TypeError, IndexError) as exc:
            return f"malformed answer: {exc!r}"

    @staticmethod
    def check_feedback(factor: float, answer: dict) -> str | None:
        """Reason a recorded feedback answer is wrong, or ``None``.

        The observation sent is ``prediction * factor``, so the recorded
        q-error must be ``max(factor, 1/factor)``.
        """
        want = max(factor, 1.0 / factor)
        got = answer.get("q_error")
        if not isinstance(got, (int, float)) or abs(got - want) > 1e-6 * want:
            return f"q_error {got!r} != expected {want:.6g}"
        return None
