"""Reliability layer: the learned cost model may degrade, never crash.

Composed by :class:`GuardedCostPredictor`:

* :mod:`repro.reliability.guard` — the RAAL → GPSJ → heuristic fallback
  chain with input validation and per-answer provenance;
* :mod:`repro.reliability.circuit` — the RAAL and GPSJ circuit
  breakers; the RAAL one is the learned-stage gate, tripped by
  failures, blown deadlines or accuracy drift;
* :mod:`repro.reliability.deadline` — per-request latency budgets that
  abandon learned-model work past the deadline;
* :mod:`repro.reliability.admission` — bounded-concurrency admission
  control that sheds requests fast under saturation;
* :mod:`repro.reliability.shadow` — the shadow scorer behind the
  deploy shadow (candidate model vs incumbent).

Fault injection for the test suite and the benchmarks lives in
``tests/faults.py``.
"""

from repro.reliability.admission import AdmissionConfig, AdmissionController
from repro.reliability.circuit import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    TRIP_CAUSES,
    BreakerConfig,
    CircuitBreaker,
)
from repro.reliability.deadline import Deadline
from repro.reliability.guard import (
    DEFAULT_CHAIN,
    GATE_STATES,
    SHED_MODES,
    ExplainedPredictions,
    GuardedCostPredictor,
    GuardedPrediction,
    static_heuristic_cost,
)
from repro.reliability.shadow import ShadowScorer

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "TRIP_CAUSES",
    "AdmissionConfig",
    "AdmissionController",
    "Deadline",
    "GuardedCostPredictor",
    "GuardedPrediction",
    "ExplainedPredictions",
    "static_heuristic_cost",
    "DEFAULT_CHAIN",
    "GATE_STATES",
    "SHED_MODES",
    "ShadowScorer",
]
