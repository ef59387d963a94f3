"""Plan selection: use the learned cost model to pick execution plans.

This is the end use of the paper's model (its Fig. 1): for each query,
enumerate Catalyst's candidate physical plans and execute the one the
cost model predicts to be fastest given the *current* resources —
versus the rule-based Catalyst default choice.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro import obs
from repro.cluster.resources import ResourceProfile
from repro.core.predictor import CostPredictor
from repro.data.catalog import Catalog
from repro.errors import PlanError
from repro.plan.builder import AnalyzedQuery
from repro.plan.enumerator import EnumeratorConfig, enumerate_plans
from repro.plan.physical import PhysicalPlan

__all__ = ["SelectionResult", "PlanSelector"]


@dataclass
class SelectionResult:
    """Outcome of selecting a plan for one query.

    ``cost_source`` / ``degradation_reason`` carry provenance when the
    predictor is a
    :class:`~repro.reliability.guard.GuardedCostPredictor`: which model
    in the fallback chain produced the costs, and why the chain
    degraded (``None`` when the learned model answered).
    """

    chosen: PhysicalPlan
    default: PhysicalPlan
    candidates: list[PhysicalPlan]
    predicted_costs: np.ndarray
    cost_source: str = "raal"
    degradation_reason: str | None = None

    @property
    def chose_default(self) -> bool:
        """Whether the model picked the same plan as the rule-based default."""
        return self.chosen.signature() == self.default.signature()

    @property
    def degraded(self) -> bool:
        """Whether the costs came from a fallback stage, not the learned model."""
        return self.cost_source != "raal"


class PlanSelector:
    """Selects the predicted-cheapest plan for a query under resources."""

    def __init__(self, predictor: CostPredictor, catalog: Catalog,
                 config: EnumeratorConfig | None = None) -> None:
        self.predictor = predictor
        self.catalog = catalog
        self.config = config or EnumeratorConfig()

    def select(self, query: AnalyzedQuery, resources: ResourceProfile,
               candidates: list[PhysicalPlan] | None = None) -> SelectionResult:
        """Pick the best plan for ``query`` given ``resources``.

        ``candidates`` may be supplied when the caller already
        enumerated (and possibly executed) the plans; otherwise they
        are enumerated here. The first candidate is always the
        Catalyst-style default plan.

        Selection runs on the inference fast path; re-selecting the
        same candidates under different resource states (the Fig. 1
        loop) reuses the encoder's cached plan-side features, so only
        the resource vector and the model forward are recomputed.
        """
        plans = candidates or enumerate_plans(query, self.catalog, self.config)
        if not plans:
            raise PlanError("no candidate plans to select from")
        with obs.span("select", candidates=len(plans)) as sp:
            obs.inc("selector.selections_total", help="Plan selections")
            pairs = [(p, resources) for p in plans]
            source, reason = "raal", None
            if hasattr(self.predictor, "predict_many_explained"):
                # Guarded predictor: run the fallback chain and keep the
                # provenance it reports.
                explained = self.predictor.predict_many_explained(pairs)
                costs, source, reason = explained.costs, explained.source, explained.reason
            else:
                costs = self.predictor.predict_many(pairs)
            if source != "raal":
                obs.inc("selector.degraded_total",
                        help="Selections served by a fallback cost source")
            sp.annotate(source=source)
            best = int(np.argmin(costs))
        return SelectionResult(
            chosen=plans[best],
            default=plans[0],
            candidates=list(plans),
            predicted_costs=costs,
            cost_source=source,
            degradation_reason=reason,
        )
