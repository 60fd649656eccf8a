"""Running estimators over labelled workloads."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.estimators.base import CardinalityEstimator
from repro.evaluation.metrics import QErrorSummary, q_errors, signed_ratio, summarize_q_errors
from repro.workload.generator import LabelledQuery

__all__ = ["EvaluationResult", "evaluate_estimator", "evaluate_estimators"]


@dataclass(frozen=True)
class EvaluationResult:
    """Per-query estimates and derived error metrics for one estimator."""

    estimator_name: str
    estimates: np.ndarray
    true_cardinalities: np.ndarray
    join_counts: np.ndarray

    @property
    def q_errors(self) -> np.ndarray:
        return q_errors(self.estimates, self.true_cardinalities)

    @property
    def signed_ratios(self) -> np.ndarray:
        return signed_ratio(self.estimates, self.true_cardinalities)

    def summary(self) -> QErrorSummary:
        """Overall q-error summary (a row of Tables 2-4)."""
        return summarize_q_errors(self.q_errors)

    def summary_by_joins(self) -> dict[int, QErrorSummary]:
        """Q-error summaries split by join count (the Figure 3-5 grouping)."""
        summaries: dict[int, QErrorSummary] = {}
        for join_count in sorted(set(self.join_counts.tolist())):
            mask = self.join_counts == join_count
            summaries[int(join_count)] = summarize_q_errors(self.q_errors[mask])
        return summaries

    def signed_percentiles_by_joins(
        self, percentiles: tuple[float, ...] = (5.0, 25.0, 50.0, 75.0, 95.0)
    ) -> dict[int, dict[float, float]]:
        """Percentiles of the signed ratio per join count (box-plot statistics)."""
        results: dict[int, dict[float, float]] = {}
        ratios = self.signed_ratios
        for join_count in sorted(set(self.join_counts.tolist())):
            mask = self.join_counts == join_count
            results[int(join_count)] = {
                percentile: float(np.percentile(ratios[mask], percentile))
                for percentile in percentiles
            }
        return results

    def subset(self, mask: np.ndarray) -> "EvaluationResult":
        """Restrict the result to queries selected by a boolean mask."""
        mask = np.asarray(mask, dtype=bool)
        return EvaluationResult(
            estimator_name=self.estimator_name,
            estimates=self.estimates[mask],
            true_cardinalities=self.true_cardinalities[mask],
            join_counts=self.join_counts[mask],
        )


def evaluate_estimator(
    estimator: CardinalityEstimator, workload: Sequence[LabelledQuery]
) -> EvaluationResult:
    """Run one estimator over a labelled workload.

    The whole workload is routed through :meth:`estimate_many` in one call
    (never per-query :meth:`estimate`), so estimators with vectorized
    ``estimate_many`` overrides — MSCN's fused inference path — answer with
    batched forward passes end-to-end.
    """
    if not workload:
        raise ValueError("cannot evaluate on an empty workload")
    queries = tuple(labelled.query for labelled in workload)
    estimates = estimator.estimate_many(queries)
    true_cardinalities = np.array([labelled.cardinality for labelled in workload], dtype=np.float64)
    join_counts = np.array([labelled.query.num_joins for labelled in workload], dtype=np.int64)
    return EvaluationResult(
        estimator_name=estimator.name,
        estimates=np.asarray(estimates, dtype=np.float64),
        true_cardinalities=true_cardinalities,
        join_counts=join_counts,
    )


def evaluate_estimators(
    estimators: Sequence[CardinalityEstimator], workload: Sequence[LabelledQuery]
) -> dict[str, EvaluationResult]:
    """Run several estimators over the same workload, keyed by estimator name."""
    return {estimator.name: evaluate_estimator(estimator, workload) for estimator in estimators}
