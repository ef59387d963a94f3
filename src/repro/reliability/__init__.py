"""Reliability layer: the learned cost model may degrade, never crash.

Composed by :class:`GuardedCostPredictor`:

* :mod:`repro.reliability.guard` — the RAAL → GPSJ → heuristic fallback
  chain with input validation and per-answer provenance;
* :mod:`repro.reliability.circuit` — the RAAL and GPSJ circuit breakers;
* :mod:`repro.reliability.deadline` — per-request latency budgets that
  abandon learned-model work past the deadline;
* :mod:`repro.reliability.admission` — bounded-concurrency admission
  control that sheds requests fast under saturation;
* :mod:`repro.reliability.ladder` — the adaptive precision-degradation
  ladder (f64 → f32 → int8 → analytic-only) driven by rolling p99;
* :mod:`repro.reliability.shadow` — the shadow scorer behind both the
  accuracy canary (degraded tier vs f64) and the candidate shadow
  (candidate model vs incumbent);
* :mod:`repro.reliability.faults` — deterministic fault injection used
  by the test suite to prove every degradation path engages.
"""

from repro.reliability.admission import AdmissionConfig, AdmissionController
from repro.reliability.circuit import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    BreakerConfig,
    CircuitBreaker,
)
from repro.reliability.deadline import Deadline
from repro.reliability.faults import FaultInjector
from repro.reliability.guard import (
    CANARY_BUDGET,
    DEFAULT_CHAIN,
    SHED_MODES,
    ExplainedPredictions,
    GuardedCostPredictor,
    GuardedPrediction,
    static_heuristic_cost,
)
from repro.reliability.ladder import (
    LADDER_STATES,
    DegradationLadder,
    LadderConfig,
    LadderTransition,
)
from repro.reliability.shadow import ShadowScorer

__all__ = [
    "BreakerConfig",
    "CircuitBreaker",
    "CLOSED",
    "OPEN",
    "HALF_OPEN",
    "AdmissionConfig",
    "AdmissionController",
    "Deadline",
    "DegradationLadder",
    "LadderConfig",
    "LadderTransition",
    "LADDER_STATES",
    "FaultInjector",
    "GuardedCostPredictor",
    "GuardedPrediction",
    "ExplainedPredictions",
    "static_heuristic_cost",
    "DEFAULT_CHAIN",
    "SHED_MODES",
    "CANARY_BUDGET",
    "ShadowScorer",
]
