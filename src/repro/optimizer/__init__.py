"""Join-order optimization and plan-quality evaluation.

The consumer the paper builds MSCN for is a query optimizer: it does not
ask for one cardinality, it asks for the cardinality of **every connected
sub-plan** of a query and picks the join order those numbers make look
cheapest.  This package provides that consumer so estimators can be judged
by the plans they induce, not only by q-error:

``repro.optimizer.plan``
    :class:`JoinTree`/:class:`Plan` — binary join trees over base tables.
``repro.optimizer.cost``
    The C_out cost model (every join charges its output cardinality).
``repro.optimizer.enumeration``
    Exact DPsize dynamic programming over connected subgraphs (the tests
    certify it against an exhaustive enumerator,
    ``tests/reference_enumeration.py``).
``repro.optimizer.quality``
    Plan-quality metrics: cost of the plan chosen under estimated
    cardinalities, executed under true cardinalities, vs. the
    true-cardinality-optimal plan.
"""

from repro.optimizer.cost import cout_cost, plan_true_cost
from repro.optimizer.enumeration import enumerate_optimal_plan
from repro.optimizer.plan import JoinTree, Plan
from repro.optimizer.quality import (
    PlanQualityReport,
    PlanQualityResult,
    PlanQualitySummary,
    evaluate_plan_quality,
    plan_quality_for_query,
    subplan_estimates,
    summarize_plan_quality,
)

__all__ = [
    "JoinTree",
    "Plan",
    "cout_cost",
    "plan_true_cost",
    "enumerate_optimal_plan",
    "subplan_estimates",
    "PlanQualityResult",
    "PlanQualitySummary",
    "PlanQualityReport",
    "plan_quality_for_query",
    "evaluate_plan_quality",
    "summarize_plan_quality",
]
