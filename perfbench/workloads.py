"""Seeded request streams for the serving workloads.

Every input the server sees is derived from the workload seed: the SQL
statements (``QueryGenerator`` over the serving catalog), which
statement and resource profile each request carries, the open-loop
arrival schedule, and the noise on reported runtimes. The same seed
always yields the same request sequence; which client connection sends
a given request is left to the scheduler.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field

import numpy as np

#: Catalog the server is booted with (``repro serve`` defaults).
DATASET = "imdb"
CATALOG_SCALE = 0.15

#: Zipf exponent of the hot statement mix.
ZIPF_S = 1.1
#: Open-loop arrival rate of ``feedback_loop`` (ops/s).
FEEDBACK_RATE = 8.0
#: Log-normal sigma of observed runtime around the served prediction.
FEEDBACK_SIGMA = 0.3

#: ``select_hot`` / ``feedback_loop`` profiles: executors x memory (3x3).
HOT_PROFILES = tuple({"executors": e, "memory_gb": m}
                     for e in (2, 4, 8) for m in (2, 4, 8))
#: ``advise_grid`` profiles: executors x memory x cores (4x3x2 = 24).
GRID_PROFILES = tuple({"executors": e, "memory_gb": m, "executor_cores": c}
                      for e in (2, 4, 8, 16) for m in (2, 4, 8)
                      for c in (1, 2))


@dataclass(frozen=True)
class Workload:
    """One traffic mix: its endpoint, statement pool and arrival model."""

    name: str
    path: str                 # predict endpoint
    statements: int           # size of the statement pool
    draw: str                 # "zipf" | "uniform"
    profiles: tuple
    grid: bool                # one request carries every profile
    loop: str                 # "closed" | "open"
    connections: int = 2
    rate: float | None = None  # open loop ops/s
    warmup_s: float = 4.0
    why: str = ""

    def params(self) -> dict:
        """Every workload parameter, for the run metadata."""
        return {"name": self.name, "path": self.path,
                "statements": self.statements, "draw": self.draw,
                "zipf_s": ZIPF_S if self.draw == "zipf" else None,
                "profiles": list(self.profiles), "grid": self.grid,
                "loop": self.loop, "connections": self.connections,
                "rate_ops_per_s": self.rate, "warmup_s": self.warmup_s,
                "feedback_sigma": (FEEDBACK_SIGMA if self.loop == "open"
                                   else None),
                "dataset": DATASET, "catalog_scale": CATALOG_SCALE}


WORKLOADS = {w.name: w for w in (
    Workload("select_hot", "/v1/predict", 16, "zipf", HOT_PROFILES,
             grid=False, loop="closed", warmup_s=3.0,
             why="steady-state plan selection: every cache hits, so the "
                 "wire, batcher hand-off and guard bookkeeping dominate"),
    Workload("advise_grid", "/v1/predict_grid", 400, "uniform",
             GRID_PROFILES, grid=True, loop="closed", warmup_s=8.0,
             why="resource-advisor traffic: 24 profiles per request over "
                 "more plans than the caches hold; exercises the ladder"),
    Workload("feedback_loop", "/v1/predict", 16, "zipf", HOT_PROFILES,
             grid=False, loop="open", rate=FEEDBACK_RATE, warmup_s=3.0,
             why="Poisson predict + feedback ops: the audit/quality write "
                 "path next to the read path"),
)}


def _sub_seed(seed: int, stream: int) -> np.random.Generator:
    """Independent generator per purpose so streams never interleave."""
    return np.random.default_rng([int(seed), stream])


@dataclass
class Statement:
    """A generated statement with the plans the server will enumerate."""

    sql: str
    plans: list = field(repr=False)

    @property
    def labels(self) -> list[str]:
        return [p.label or p.signature() for p in self.plans]


#: Join count of each pool slot, cycled. Slot 0 is the most popular
#: statement under the Zipf mix. Fixing the join mix per slot keeps the
#: work per request nearly the same for every seed (the tables,
#: predicates and literals still vary), so the seed changes the inputs
#: without changing how expensive the workload is.
JOIN_MIX = (2, 3, 1, 4, 2, 3, 0, 5, 1, 2, 3, 4, 0, 5, 1, 2)


def statement_pool(catalog, count: int, seed: int) -> list[Statement]:
    """``count`` distinct statements that parse and enumerate cleanly.

    Slot ``i`` holds a statement with ``JOIN_MIX[i % len(JOIN_MIX)]``
    joins, drawn by a ``QueryGenerator`` seeded from ``seed``.
    """
    from repro.errors import ReproError
    from repro.plan.builder import analyze
    from repro.plan.enumerator import enumerate_plans
    from repro.sql.parser import parse
    from repro.workload.generator import QueryGenerator, WorkloadConfig

    seeds = _sub_seed(seed, 0).integers(2**31, size=max(JOIN_MIX) + 1)
    generators = {
        joins: QueryGenerator(catalog,
                              WorkloadConfig(min_joins=joins, max_joins=joins),
                              seed=int(seeds[joins]))
        for joins in set(JOIN_MIX)}
    pool: list[Statement] = []
    seen: set[str] = set()
    for slot in range(count):
        generator = generators[JOIN_MIX[slot % len(JOIN_MIX)]]
        for _ in range(50):
            sql = generator.generate_one()
            key = " ".join(sql.split())
            if key in seen:
                continue
            try:
                plans = enumerate_plans(analyze(parse(sql), catalog), catalog)
            except ReproError:
                continue
            if plans:
                seen.add(key)
                pool.append(Statement(sql, plans))
                break
        else:
            raise RuntimeError(f"no usable statement for slot {slot} with "
                               f"seed {seed}")
    return pool


def zipf_weights(n: int, s: float = ZIPF_S) -> np.ndarray:
    weights = 1.0 / np.arange(1, n + 1) ** s
    return weights / weights.sum()


@dataclass(frozen=True)
class Request:
    """One generated request: which statement and profile it carries."""

    index: int
    statement: int
    profile: int | None       # None for grid requests (all profiles)
    body: bytes


class RequestStream:
    """Deterministic, thread-safe sequence of request bodies.

    The i-th request is fixed by the seed; concurrent callers take the
    next index under a lock. Bodies are serialized once per distinct
    (statement, profile) so the client spends no time in ``json`` on the
    hot path.
    """

    def __init__(self, workload: Workload, pool: list[Statement],
                 seed: int) -> None:
        self.workload = workload
        self.pool = pool
        self._rng = _sub_seed(seed, 1)
        # Slot order is popularity rank; the slots' statements are seeded.
        self._weights = (zipf_weights(len(pool)) if workload.draw == "zipf"
                         else None)
        self._bodies: dict[tuple, bytes] = {}
        self._lock = threading.Lock()
        self._next = 0

    def body(self, statement: int, profile: int | None) -> bytes:
        key = (statement, profile)
        cached = self._bodies.get(key)
        if cached is None:
            payload = {"sql": self.pool[statement].sql}
            if profile is None:
                payload["profiles"] = list(self.workload.profiles)
            else:
                payload["resources"] = self.workload.profiles[profile]
            cached = json.dumps(payload).encode()
            self._bodies[key] = cached
        return cached

    def _draw(self) -> tuple[int, int | None]:
        n = len(self.pool)
        if self._weights is None:
            statement = int(self._rng.integers(n))
        else:
            statement = int(self._rng.choice(n, p=self._weights))
        profile = (None if self.workload.grid
                   else int(self._rng.integers(len(self.workload.profiles))))
        return statement, profile

    def next(self) -> Request:
        with self._lock:
            index = self._next
            self._next += 1
            statement, profile = self._draw()
        return Request(index, statement, profile,
                       self.body(statement, profile))

    def every_body(self) -> list[Request]:
        """Each distinct request once (cache warm-up for small pools)."""
        if self.workload.grid:
            keys = [(s, None) for s in range(len(self.pool))]
        else:
            keys = [(s, p) for s in range(len(self.pool))
                    for p in range(len(self.workload.profiles))]
        return [Request(-1, s, p, self.body(s, p)) for s, p in keys]


def poisson_schedule(rate: float, duration: float, seed: int,
                     stream: int = 3) -> np.ndarray:
    """Arrival offsets (seconds from start) of a Poisson process.

    Conditioned on its count: exactly ``round(rate * duration)`` arrivals,
    placed as sorted uniform points, which is how a Poisson process with
    that many arrivals in the interval is distributed. Fixing the count
    keeps the offered load identical across seeds, so the achieved rate
    measures the server, not the draw.
    """
    rng = _sub_seed(seed, stream)
    count = int(round(rate * duration))
    return np.sort(rng.uniform(0.0, duration, size=count))


def runtime_noise(count: int, seed: int) -> np.ndarray:
    """Multiplicative log-normal factors for observed runtimes."""
    return _sub_seed(seed, 4).lognormal(0.0, FEEDBACK_SIGMA, size=count)
