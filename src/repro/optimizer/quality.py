"""Plan-quality metrics: what an estimator's errors cost the optimizer.

Per-query q-error says how wrong an estimate is; it does not say whether
the optimizer would have picked a different (worse) join order because of
it.  This module closes that loop, following the paper's motivation:

1. ask the estimator for the cardinality of **every connected sub-plan**
   of a query (one batched ``estimate_subplans`` call),
2. run the DP enumerator under those estimates → the plan the optimizer
   *would choose*,
3. re-cost that chosen plan under **true** sub-plan cardinalities — the
   cost actually paid at execution time,
4. compare against the cost of the true-cardinality-optimal plan.

The headline metric is the **cost ratio** ``true cost of chosen plan /
true cost of optimal plan`` (≥ 1; 1 means the estimator's errors were
harmless to join ordering).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.db.query import Query
from repro.estimators.base import CardinalityEstimator
from repro.optimizer.cost import plan_true_cost
from repro.optimizer.enumeration import enumerate_optimal_plan
from repro.optimizer.plan import Plan

__all__ = [
    "subplan_estimates",
    "PlanQualityResult",
    "PlanQualitySummary",
    "PlanQualityReport",
    "plan_quality_for_query",
    "evaluate_plan_quality",
    "summarize_plan_quality",
]


def subplan_estimates(
    estimator: CardinalityEstimator, query: Query
) -> dict[frozenset[str], float]:
    """Cardinalities of every connected sub-plan of ``query``: the
    estimator's one batched ``estimate_subplans`` call."""
    return estimator.estimate_subplans(query)


@dataclass(frozen=True)
class PlanQualityResult:
    """Plan-quality outcome for one query and one estimator."""

    query: Query
    chosen_plan: Plan
    optimal_plan: Plan
    chosen_plan_true_cost: float
    optimal_true_cost: float

    @property
    def cost_ratio(self) -> float:
        """True cost of the chosen plan over the optimal plan's (≥ 1)."""
        if self.optimal_true_cost > 0.0:
            return self.chosen_plan_true_cost / self.optimal_true_cost
        return 1.0 if self.chosen_plan_true_cost == 0.0 else float("inf")

    @property
    def picked_optimal(self) -> bool:
        """Whether the estimator-driven plan costs no more than the optimum."""
        return self.chosen_plan_true_cost <= self.optimal_true_cost


@dataclass(frozen=True)
class PlanQualitySummary:
    """Distribution of cost ratios over a workload (a plan-quality table row)."""

    count: int
    median: float
    percentile_95: float
    maximum: float
    mean: float
    fraction_optimal: float
    total_chosen_cost: float
    total_optimal_cost: float

    @property
    def total_cost_ratio(self) -> float:
        """Workload-level slowdown: summed chosen cost over summed optimal cost."""
        if self.total_optimal_cost > 0.0:
            return self.total_chosen_cost / self.total_optimal_cost
        return 1.0


@dataclass(frozen=True)
class PlanQualityReport:
    """Per-query plan-quality results for one estimator over one workload."""

    estimator_name: str
    results: tuple[PlanQualityResult, ...]

    def cost_ratios(self) -> np.ndarray:
        return np.array([result.cost_ratio for result in self.results], dtype=np.float64)

    def summary(self) -> PlanQualitySummary:
        return summarize_plan_quality(self.results)


def plan_quality_for_query(
    query: Query,
    estimated_cardinalities: Mapping[frozenset[str], float],
    true_cardinalities: Mapping[frozenset[str], float],
) -> PlanQualityResult:
    """Plan quality of one query given estimated and true sub-plan sizes."""
    chosen = enumerate_optimal_plan(query, estimated_cardinalities)
    optimal = enumerate_optimal_plan(query, true_cardinalities)
    return PlanQualityResult(
        query=query,
        chosen_plan=chosen,
        optimal_plan=optimal,
        chosen_plan_true_cost=plan_true_cost(chosen.tree, true_cardinalities),
        optimal_true_cost=optimal.cost,
    )


def evaluate_plan_quality(
    estimator: CardinalityEstimator,
    oracle: CardinalityEstimator,
    queries: Sequence[Query],
    *,
    min_joins: int = 2,
) -> PlanQualityReport:
    """Plan quality of an estimator over a workload.

    ``oracle`` supplies true sub-plan cardinalities — typically a (memoized)
    :class:`~repro.estimators.true.TrueCardinalityEstimator`, so repeated
    evaluations of several estimators over one workload execute each shared
    sub-plan once.  Queries with fewer than ``min_joins`` joins are skipped:
    with zero or one join every cross-product-free join order has the same
    C_out cost, so they carry no plan-quality signal.
    """
    if min_joins < 0:
        raise ValueError("min_joins must be non-negative")
    results = []
    for query in queries:
        if query.num_joins < min_joins or not query.is_connected():
            continue
        estimated = subplan_estimates(estimator, query)
        truth = subplan_estimates(oracle, query)
        results.append(plan_quality_for_query(query, estimated, truth))
    return PlanQualityReport(
        estimator_name=estimator.name,
        results=tuple(results),
    )


def summarize_plan_quality(results: Sequence[PlanQualityResult]) -> PlanQualitySummary:
    """Distribution summary of plan-quality results."""
    if not results:
        raise ValueError(
            "cannot summarize plan quality without results; the workload had "
            "no queries with enough joins to make join order matter"
        )
    ratios = np.array([result.cost_ratio for result in results], dtype=np.float64)
    return PlanQualitySummary(
        count=int(ratios.size),
        median=float(np.percentile(ratios, 50)),
        percentile_95=float(np.percentile(ratios, 95)),
        maximum=float(ratios.max()),
        mean=float(ratios.mean()),
        fraction_optimal=float(
            np.mean([result.picked_optimal for result in results])
        ),
        total_chosen_cost=float(sum(result.chosen_plan_true_cost for result in results)),
        total_optimal_cost=float(sum(result.optimal_true_cost for result in results)),
    )
