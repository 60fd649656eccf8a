"""Tests of the precompiled featurizer plan.

Contracts: unknown vocabulary raises a descriptive ``KeyError``, the query
cache is LRU-bounded, probe bitmaps are shared across queries, the probe
matrix is only ever flushed between batches, and plan cache hits keep
bitmap-cache observability intact.  Bit identity against the per-query
reference featurization is ``test_featurization_oracle.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from reference_featurization import assert_same_elements, reference_featurize

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.featurization import CompiledFeaturizerPlan, QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.db.query import JoinCondition, Operator, Predicate, Query


@pytest.fixture(scope="module")
def parts(tiny_database, tiny_samples):
    encoding = SchemaEncoding.from_schema(tiny_database.schema)
    value_normalizer = ValueNormalizer.from_database(tiny_database)
    return encoding, value_normalizer, tiny_samples


def make_featurizer(parts, variant=FeaturizationVariant.BITMAPS, dtype=np.float64):
    encoding, value_normalizer, samples = parts
    return QueryFeaturizer(
        encoding, value_normalizer, samples=samples, variant=variant, dtype=dtype
    )


class TestProbeFlush:
    @pytest.mark.parametrize("cap", (2, 8))
    def test_flush_never_splits_a_batch(self, parts, tiny_workload, cap):
        """Regression: the probe matrix used to be flushed in the middle of
        compiling a batch, so probe ids already handed to earlier queries of
        the batch indexed overwritten bitmap rows."""
        queries = [labelled.query for labelled in tiny_workload[:60]]
        featurizer = make_featurizer(parts)
        featurizer._plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=cap)
        oracle = reference_featurize(featurizer, queries)
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        assert featurizer.plan().num_probes > 4 * cap
        # The next batch starts with the flush and is just as exact.
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        assert featurizer.plan()._flushes == 1


class TestElementOrder:
    def test_reordered_query_is_not_replayed_in_the_cached_order(self, parts):
        """Regression: the cache is keyed by the order-independent signature,
        and a query listing the same sets in another order used to replay
        the first query's element order."""
        featurizer = make_featurizer(parts)
        forward = Query(
            tables=("title", "movie_companies"),
            joins=(JoinCondition("movie_companies", "movie_id", "title", "id"),),
            predicates=(
                Predicate("title", "production_year", Operator.GT, 1990),
                Predicate("movie_companies", "company_id", Operator.LT, 50),
            ),
        )
        backward = Query(forward.tables[::-1], forward.joins, forward.predicates[::-1])
        assert forward.signature() == backward.signature()
        queries = [forward, backward, forward]
        oracle = reference_featurize(featurizer, queries)
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)


class TestErrorMessages:
    def test_unknown_table(self, parts):
        featurizer = make_featurizer(parts)
        with pytest.raises(KeyError, match="not part of the encoded schema"):
            featurizer.featurize_ragged([Query(tables=("nonexistent",))])

    def test_unknown_column(self, parts, tiny_database):
        featurizer = make_featurizer(parts)
        # Predicates on key columns are not predicable.
        query = Query(
            tables=("title",),
            predicates=(Predicate("title", "id", Operator.GT, 0),),
        )
        with pytest.raises(KeyError, match="not a predicable"):
            featurizer.featurize_ragged([query])

    def test_unknown_join(self, parts):
        featurizer = make_featurizer(parts)
        query = Query(
            tables=("title", "movie_companies"),
            joins=(JoinCondition("movie_companies", "company_id", "title", "id"),),
        )
        with pytest.raises(KeyError, match="not part of the encoded schema"):
            featurizer.featurize_ragged([query])

    def test_empty_workload_raises(self, parts):
        with pytest.raises(ValueError):
            make_featurizer(parts).featurize_ragged([])


class TestLabelColumns:
    def test_labels_and_cardinalities_are_column_vectors(self, parts, tiny_workload):
        featurizer = make_featurizer(parts, FeaturizationVariant.NO_SAMPLES)
        queries = [labelled.query for labelled in tiny_workload[:4]]
        dataset = featurizer.featurize_ragged(
            queries,
            labels=np.array([0.1, 0.2, 0.3, 0.4]),
            cardinalities=np.array([1.0, 2.0, 3.0, 4.0]),
        )
        assert dataset.labels.shape == (4, 1)
        assert dataset.cardinalities.shape == (4, 1)
        with pytest.raises(ValueError):
            featurizer.featurize_ragged(queries, labels=np.array([0.1]))
        with pytest.raises(ValueError):
            featurizer.featurize_ragged(queries, cardinalities=np.array([1.0, 2.0]))


class TestQueryCache:
    def test_repeat_queries_hit_the_compiled_cache(self, parts, tiny_workload):
        featurizer = make_featurizer(parts)
        queries = [labelled.query for labelled in tiny_workload[:20]]
        featurizer.featurize_ragged(queries)
        plan = featurizer.plan()
        misses = plan.cache_misses
        featurizer.featurize_ragged(queries)
        assert plan.cache_misses == misses
        assert plan.cache_hits >= len(queries)

    def test_cache_is_bounded_and_evicts_lru(self, parts, tiny_workload):
        encoding, value_normalizer, samples = parts
        featurizer = QueryFeaturizer(encoding, value_normalizer, samples=samples)
        plan = CompiledFeaturizerPlan(featurizer, max_cached_queries=8)
        queries = [labelled.query for labelled in tiny_workload[:20]]
        for query in queries:
            plan.compile_query(query)
        assert plan.num_cached_queries <= 8
        assert plan.cache_evictions >= len(queries) - 8
        # The most recently compiled query is still cached.
        hits = plan.cache_hits
        plan.compile_query(queries[-1])
        assert plan.cache_hits == hits + 1

    def test_invalid_cache_cap_rejected(self, parts):
        featurizer = make_featurizer(parts)
        with pytest.raises(ValueError):
            CompiledFeaturizerPlan(featurizer, max_cached_queries=0)


class TestProbeSharing:
    def test_identical_probes_share_one_matrix_row(self, parts):
        featurizer = make_featurizer(parts)
        plan = featurizer.plan()
        # Two distinct queries with the same (table, predicates) probe.
        first = Query(
            tables=("title",),
            predicates=(Predicate("title", "production_year", Operator.GT, 1990),),
        )
        second = Query(
            tables=("title", "movie_companies"),
            joins=(JoinCondition("movie_companies", "movie_id", "title", "id"),),
            predicates=(Predicate("title", "production_year", Operator.GT, 1990),),
        )
        a = plan.compile_query(first)
        b = plan.compile_query(second)
        title_probe_a = int(a.probe_ids[0])
        title_probe_b = int(b.probe_ids[list(second.tables).index("title")])
        assert title_probe_a == title_probe_b

    def test_plan_cache_hits_credit_the_bitmap_cache(self, parts, tiny_workload):
        encoding, value_normalizer, samples = parts
        featurizer = QueryFeaturizer(encoding, value_normalizer, samples=samples)
        queries = [labelled.query for labelled in tiny_workload[:15]]
        featurizer.featurize_ragged(queries)
        hits_before = samples.bitmap_cache_hits
        featurizer.featurize_ragged(queries)
        num_probes = sum(len(q.tables) for q in queries)
        assert samples.bitmap_cache_hits - hits_before == num_probes


class TestElementIds:
    def test_equal_predicates_share_one_predicate_id(self, parts):
        plan = make_featurizer(parts).plan()
        predicate = Predicate("title", "production_year", Operator.GT, 1990)
        a = plan.compile_query(Query(tables=("title",), predicates=(predicate,)))
        b = plan.compile_query(
            Query(
                tables=("title", "movie_companies"),
                joins=(JoinCondition("movie_companies", "movie_id", "title", "id"),),
                predicates=(
                    Predicate("movie_companies", "company_id", Operator.LT, 50),
                    Predicate("title", "production_year", Operator.GT, 1990.0),
                ),
            )
        )
        assert int(a.predicate_ids[0]) == int(b.predicate_ids[1])
        assert int(b.predicate_ids[0]) != int(b.predicate_ids[1])
        assert plan.num_predicates == 2

    @pytest.mark.parametrize("variant", tuple(FeaturizationVariant), ids=lambda v: v.value)
    def test_sub_plans_store_each_shared_element_once(self, parts, variant):
        featurizer = make_featurizer(parts, variant)
        query = Query(
            tables=("title", "movie_companies", "cast_info"),
            joins=(
                JoinCondition("movie_companies", "movie_id", "title", "id"),
                JoinCondition("cast_info", "movie_id", "title", "id"),
            ),
            predicates=(
                Predicate("title", "production_year", Operator.GT, 1990),
                Predicate("movie_companies", "company_id", Operator.LT, 50),
            ),
        )
        subqueries = query.connected_subqueries()
        dataset = featurizer.featurize_ragged(subqueries)
        oracle = reference_featurize(featurizer, subqueries)
        assert_same_elements(dataset, oracle)
        # Each table keeps its predicates in every sub-plan: one probe (or
        # table id) per table, one row per join and per predicate.
        assert dataset.tables.features.shape[0] == 3
        assert dataset.joins.features.shape[0] == 2
        assert dataset.predicates.features.shape[0] == 2
        assert dataset.tables.rows.shape[0] == sum(len(q.tables) for q in subqueries)


class TestThreadSafety:
    def test_concurrent_batches_match_the_per_query_reference(self, parts, tiny_workload):
        """Regression: compiling and gathering ran unlocked, so threads
        sharing one plan could register two probes under one id (or lose a
        row when the probe matrix grew) and silently return another
        query's table features."""
        queries = [
            subquery
            for labelled in tiny_workload
            for subquery in labelled.query.connected_subqueries()
        ]
        batches = [queries[start : start + 3] for start in range(0, len(queries), 3)]
        reference = make_featurizer(parts)
        expected = [reference_featurize(reference, batch) for batch in batches]
        num_threads = 4
        switch_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(10):  # each trial registers every probe afresh
                featurizer = make_featurizer(parts)
                results: list = [None] * len(batches)
                barrier = threading.Barrier(num_threads)

                def featurize(worker: int) -> None:
                    barrier.wait(timeout=60)
                    for index in range(worker, len(batches), num_threads):
                        results[index] = featurizer.featurize_ragged(batches[index])

                threads = [
                    threading.Thread(target=featurize, args=(worker,))
                    for worker in range(num_threads)
                ]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
                    assert not thread.is_alive()
                assert all(result is not None for result in results)
                for got, want in zip(results, expected):
                    assert_same_elements(got, want)
        finally:
            sys.setswitchinterval(switch_interval)
