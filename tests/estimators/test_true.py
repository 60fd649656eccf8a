"""Tests of the oracle estimator."""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets.registry import get_dataset, registered_datasets
from repro.estimators.base import CardinalityEstimator
from repro.estimators.true import TrueCardinalityEstimator
from repro.evaluation.metrics import q_errors
from repro.workload.generator import QueryGenerator, WorkloadConfig, generate_evaluation_workload


def test_oracle_matches_labels(tiny_database, tiny_workload):
    oracle = TrueCardinalityEstimator(tiny_database)
    subset = tiny_workload[:25]
    estimates = oracle.estimate_many([q.query for q in subset])
    truths = np.array([q.cardinality for q in subset], dtype=float)
    np.testing.assert_allclose(q_errors(estimates, truths), np.ones(len(subset)))


def test_oracle_clamps_empty_results_to_one(two_table_database):
    from repro.db.query import Predicate, Query

    oracle = TrueCardinalityEstimator(two_table_database)
    query = Query(tables=("fact",), predicates=(Predicate("fact", "value", ">", 100),))
    assert oracle.estimate(query) == 1.0


def test_oracle_memoizes_by_signature(tiny_database, tiny_workload):
    oracle = TrueCardinalityEstimator(tiny_database)
    queries = [labelled.query for labelled in tiny_workload[:10]]
    first = oracle.estimate_many(queries)
    assert oracle.cache_misses == len(queries)
    assert oracle.cache_hits == 0
    second = oracle.estimate_many(queries)
    np.testing.assert_array_equal(first, second)
    assert oracle.cache_hits == len(queries)
    assert oracle.cache_misses == len(queries)


def test_oracle_memoizes_shared_subplans(tiny_database, tiny_workload):
    multi_join = [l.query for l in tiny_workload if l.query.num_joins >= 2][:3]
    oracle = TrueCardinalityEstimator(tiny_database)
    for query in multi_join:
        oracle.estimate_subplans(query)
        hits_before = oracle.cache_hits
        # Re-enumerating the same query's sub-plans is pure cache traffic.
        oracle.estimate_subplans(query)
        assert oracle.cache_hits - hits_before == len(query.connected_subqueries())


def test_oracle_cache_can_be_disabled(tiny_database, tiny_workload):
    oracle = TrueCardinalityEstimator(tiny_database, cache_capacity=None)
    query = tiny_workload[0].query
    oracle.estimate(query)
    oracle.estimate(query)
    assert oracle.cache_hits == 0 and oracle.cache_misses == 0


# ---------------------------------------------------------------------------
# The fan-out path against the base-class path (estimate_many over sub-plans)
# ---------------------------------------------------------------------------
def memo_state(oracle: TrueCardinalityEstimator):
    """Hits, misses and the result memo's entries in LRU order."""
    return oracle.cache_hits, oracle.cache_misses, list(oracle._executor._cache._entries.items())


@pytest.fixture(scope="module")
def fanout_queries(tiny_database):
    generator = QueryGenerator(
        tiny_database, WorkloadConfig(num_queries=10, min_joins=2, max_joins=3, seed=29)
    )
    queries = [generator._draw_query() for _ in range(10)]
    assert max(len(query.connected_subqueries()) for query in queries) > 4
    return queries


@pytest.mark.parametrize(
    "warmth, capacity",
    [("cold", 65536), ("warm", 65536), ("half_warm", 65536), ("half_warm", 4), ("warm", 4)],
)
def test_fanout_memo_traffic_matches_base_class_path(tiny_database, fanout_queries, warmth,
                                                     capacity):
    """Same values, hits, misses and LRU contents after every query, also
    when the LRU holds fewer entries than one fan-out has sub-plans."""
    fanout, base = (
        TrueCardinalityEstimator(tiny_database, cache_capacity=capacity) for _ in range(2)
    )
    for oracle in (fanout, base):
        for query in fanout_queries:
            if warmth == "warm":
                CardinalityEstimator.estimate_subplans(oracle, query)
            elif warmth == "half_warm":
                oracle.estimate_many(query.connected_subqueries()[::2])
    assert memo_state(fanout) == memo_state(base)
    # Repeats revisit sub-plans the memo may still hold or already evicted.
    for query in fanout_queries + fanout_queries[::3]:
        assert fanout.estimate_subplans(query) == CardinalityEstimator.estimate_subplans(
            base, query
        )
        assert memo_state(fanout) == memo_state(base)


@pytest.mark.parametrize("name", [spec.name for spec in registered_datasets()])
def test_fanout_bit_identical_on_plan_quality_queries(name):
    """The queries and database of ``test_plan_quality_gates.py``."""
    spec = get_dataset(name)
    database = spec.generate(scale=0.05, seed=7)
    evaluation = generate_evaluation_workload(spec, database, num_queries=60, seed=23)
    queries = [l.query for l in evaluation if l.query.num_joins >= 2][:25]
    assert queries
    fanout = TrueCardinalityEstimator(database)
    uncached = TrueCardinalityEstimator(database, cache_capacity=None, scan_cache_capacity=None)
    base = TrueCardinalityEstimator(database)
    for query in queries:
        expected = CardinalityEstimator.estimate_subplans(base, query)
        assert fanout.estimate_subplans(query) == expected
        assert uncached.estimate_subplans(query) == expected
