"""Tests of plan-quality evaluation (estimated plans re-costed under truth)."""

from __future__ import annotations

import pytest

from repro.db.query import JoinCondition, Query
from repro.estimators.base import CardinalityEstimator
from repro.optimizer.quality import (
    evaluate_plan_quality,
    plan_quality_for_query,
    subplan_estimates,
    summarize_plan_quality,
)

CHAIN = Query(
    tables=("a", "b", "c"),
    joins=(JoinCondition("a", "k", "b", "k"), JoinCondition("b", "k2", "c", "k2")),
)

TRUE_CARDS = {
    frozenset({"a"}): 10.0,
    frozenset({"b"}): 100.0,
    frozenset({"c"}): 10.0,
    frozenset({"a", "b"}): 1000.0,
    frozenset({"b", "c"}): 5.0,
    frozenset({"a", "b", "c"}): 50.0,
}

# An estimator that thinks a⋈b is tiny and b⋈c is huge — it will pick the
# plan that joins a and b first, which truth says is the expensive one.
MISLED_CARDS = dict(TRUE_CARDS)
MISLED_CARDS[frozenset({"a", "b"})] = 2.0
MISLED_CARDS[frozenset({"b", "c"})] = 90_000.0


class _TableCountEstimator(CardinalityEstimator):
    """Deterministic stand-in: estimate = 7 ** (number of tables)."""

    name = "table count"

    def estimate(self, query: Query) -> float:
        return float(7 ** len(query.tables))


class TestPlanQualityForQuery:
    def test_true_estimates_are_optimal(self):
        result = plan_quality_for_query(CHAIN, TRUE_CARDS, TRUE_CARDS)
        assert result.cost_ratio == 1.0
        assert result.picked_optimal
        assert result.chosen_plan.tree == result.optimal_plan.tree

    def test_misleading_estimates_produce_worse_plan(self):
        result = plan_quality_for_query(CHAIN, MISLED_CARDS, TRUE_CARDS)
        # Chosen: (a ⋈ b) first → true cost 1000 + 50; optimal: (b ⋈ c) → 5 + 50.
        assert result.chosen_plan_true_cost == 1050.0
        assert result.optimal_true_cost == 55.0
        assert result.cost_ratio == pytest.approx(1050.0 / 55.0)
        assert not result.picked_optimal

    def test_ratio_guard_for_zero_cost(self):
        single = Query(tables=("a",))
        result = plan_quality_for_query(single, {frozenset({"a"}): 3.0}, {frozenset({"a"}): 9.0})
        assert result.cost_ratio == 1.0  # no joins → both plans cost zero


class TestSubplanEstimates:
    def test_asks_estimate_subplans(self):
        class _Batched:
            def estimate_subplans(self, query):
                return {frozenset({"sentinel"}): 1.0}

        assert subplan_estimates(_Batched(), CHAIN) == {frozenset({"sentinel"}): 1.0}

    def test_base_class_batches_connected_subqueries(self):
        estimator = _TableCountEstimator()
        estimates = estimator.estimate_subplans(CHAIN)
        assert set(estimates) == set(CHAIN.connected_table_subsets())
        assert estimates[frozenset({"a", "b"})] == 49.0


class TestEvaluatePlanQuality:
    def test_skips_low_join_queries(self):
        single_join = CHAIN.subquery({"a", "b"})
        report = evaluate_plan_quality(
            _TableCountEstimator(), _TableCountEstimator(), [single_join, CHAIN]
        )
        assert len(report.results) == 1
        assert report.results[0].query.signature() == CHAIN.signature()
        assert report.estimator_name == "table count"

    def test_identical_estimators_score_perfectly(self):
        report = evaluate_plan_quality(
            _TableCountEstimator(), _TableCountEstimator(), [CHAIN]
        )
        summary = report.summary()
        assert summary.count == 1
        assert summary.maximum == 1.0
        assert summary.fraction_optimal == 1.0
        assert summary.total_cost_ratio == 1.0

    def test_negative_min_joins_rejected(self):
        with pytest.raises(ValueError):
            evaluate_plan_quality(_TableCountEstimator(), _TableCountEstimator(), [], min_joins=-1)


class TestSummarize:
    def test_empty_results_raise(self):
        with pytest.raises(ValueError, match="plan quality"):
            summarize_plan_quality([])

    def test_summary_statistics(self):
        bad = plan_quality_for_query(CHAIN, MISLED_CARDS, TRUE_CARDS)
        good = plan_quality_for_query(CHAIN, TRUE_CARDS, TRUE_CARDS)
        summary = summarize_plan_quality([bad, good])
        assert summary.count == 2
        assert summary.fraction_optimal == 0.5
        assert summary.maximum == pytest.approx(1050.0 / 55.0)
        assert summary.mean == pytest.approx((1.0 + 1050.0 / 55.0) / 2.0)
        assert summary.total_chosen_cost == 1050.0 + 55.0
        assert summary.total_optimal_cost == 110.0
