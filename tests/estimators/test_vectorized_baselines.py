"""Tests of the batched (dedup-memoized) baseline estimation paths."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.statistics import DatabaseStatistics
from repro.estimators.base import subplan_map
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator


@pytest.fixture(scope="module")
def estimators(request):
    tiny_database = request.getfixturevalue("tiny_database")
    tiny_samples = request.getfixturevalue("tiny_samples")
    statistics = DatabaseStatistics(tiny_database)
    return (
        PostgresEstimator(tiny_database, statistics=statistics),
        RandomSamplingEstimator(tiny_database, tiny_samples, statistics=statistics),
    )


def test_batch_matches_per_query_exactly(estimators, tiny_workload):
    queries = [labelled.query for labelled in tiny_workload]
    for estimator in estimators:
        batched = estimator.estimate_many(queries)
        singles = np.array([estimator.estimate(query) for query in queries])
        np.testing.assert_array_equal(batched, singles)


def test_permuted_predicate_orders_stay_bit_identical(estimators, tiny_workload):
    """Permutations of one predicate set must not share a memoized factor.

    Selectivities are multiplied in predicate order, so two orderings of the
    same conjunction can differ in the last ulp — each ordering must match
    its own per-query estimate() bit for bit even when batched together.
    """
    from repro.db.query import Query

    candidates = [
        l.query
        for l in tiny_workload
        if any(len(l.query.predicates_on(t)) >= 2 for t in l.query.tables)
    ][:5]
    assert candidates, "the tiny workload should contain multi-predicate queries"
    for estimator in estimators:
        for query in candidates:
            permuted = Query(
                tables=query.tables,
                joins=query.joins,
                predicates=tuple(reversed(query.predicates)),
            )
            batched = estimator.estimate_many([query, permuted])
            assert batched[0] == estimator.estimate(query)
            assert batched[1] == estimator.estimate(permuted)


def test_subplan_fanout_matches_per_subquery_exactly(estimators, tiny_workload):
    multi_join = [l.query for l in tiny_workload if l.query.num_joins >= 2][:10]
    assert multi_join, "the tiny workload should contain multi-join queries"
    for estimator in estimators:
        for query in multi_join:
            batch = estimator.estimate_subplans(query)
            for subquery in query.connected_subqueries():
                assert batch[frozenset(subquery.tables)] == estimator.estimate(subquery)


def test_base_table_estimates_are_deduplicated(estimators, tiny_workload):
    multi_join = [l.query for l in tiny_workload if l.query.num_joins >= 2][:5]
    for estimator in estimators:
        for query in multi_join:
            subqueries = query.connected_subqueries()
            calls: list[tuple] = []
            original = estimator._base_estimate

            def counting(table, predicates, _original=original, _calls=calls):
                _calls.append((table, tuple(predicates)))
                return _original(table, predicates)

            estimator._base_estimate = counting
            try:
                estimator.estimate_many(subqueries)
            finally:
                del estimator.__dict__["_base_estimate"]
            # One evaluation per unique (table, predicate set) — not one per
            # sub-plan occurrence (each table recurs in ~half the sub-plans).
            assert len(calls) == len(set(calls))
            occurrences = sum(len(sub.tables) for sub in subqueries)
            assert len(calls) < occurrences


def test_join_selectivities_are_deduplicated(estimators, tiny_workload):
    multi_join = [l.query for l in tiny_workload if l.query.num_joins >= 2][:5]
    for estimator in estimators:
        for query in multi_join:
            subqueries = query.connected_subqueries()
            calls: list[str] = []
            original = estimator.join_selectivity

            def counting(join, _original=original, _calls=calls):
                _calls.append(join.canonical)
                return _original(join)

            estimator.join_selectivity = counting
            try:
                estimator.estimate_many(subqueries)
            finally:
                del estimator.__dict__["join_selectivity"]
            assert len(calls) == len(set(calls)) == query.num_joins


def test_subplan_map_keys_are_the_memoized_subsets(estimators, tiny_workload):
    # Keys are the very objects ``connected_table_subsets()`` returns, so
    # join enumeration walking those objects finds each one by identity.
    multi_join = [l.query for l in tiny_workload if l.query.num_joins >= 2][:5]
    for query in multi_join:
        subsets = query.connected_table_subsets()
        mapping = subplan_map(query, np.arange(1, len(subsets) + 1))
        assert all(key is subset for key, subset in zip(mapping, subsets))
        assert list(mapping.values()) == [float(i) for i in range(1, len(subsets) + 1)]
        assert all(type(value) is float for value in mapping.values())
        for estimator in estimators:
            served = estimator.estimate_subplans(query)
            assert all(key is subset for key, subset in zip(served, subsets))
            assert len(served) == len(subsets)
