"""Tests of the featurizer's compiled element keys and its bitmap lookups.

Contracts: unknown vocabulary raises a descriptive ``KeyError``, the
compiled-query cache is LRU-bounded, equal probes and equal predicates are
one feature row, every table element is one lookup in the samples' bitmap
memo (so its counters stay exact), a bitmap the memo evicted is evaluated
again, and caches that evict in the middle of a batch change no row.  Bit identity against the per-query reference
featurization is ``test_featurization_oracle.py``.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest
from reference_featurization import assert_same_elements, reference_featurize

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core import featurization
from repro.core.featurization import QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.datasets import registered_datasets
from repro.db.query import JoinCondition, Operator, Predicate, Query
from repro.db.sampling import MaterializedSamples
from repro.workload.generator import generate_training_workload


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
    def test_flush_never_splits_a_batch(self, tiny_database, tiny_workload, monkeypatch, cap):
        """Regression: the probe matrix the featurizer used to keep was
        flushed in the middle of compiling a batch, so ids already handed to
        earlier queries of the batch indexed overwritten bitmap rows.  Its
        successors, the compiled-query cache and the samples' bitmap memo,
        evict mid-batch at a small cap, and that must not change a row."""
        monkeypatch.setattr(featurization, "MAX_CACHED_QUERIES", cap)
        samples = MaterializedSamples(tiny_database, sample_size=50, seed=7, max_cached_bitmaps=cap)
        featurizer = QueryFeaturizer(
            SchemaEncoding.from_schema(tiny_database.schema),
            ValueNormalizer.from_database(tiny_database),
            samples=samples,
        )
        queries = [labelled.query for labelled in tiny_workload[:60]]
        oracle = reference_featurize(featurizer, queries)
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        probes = {
            MaterializedSamples.probe_signature(table, query.predicates)
            for query in queries
            for table in query.tables
        }
        assert len(probes) > 4 * cap
        assert featurizer._compiled.evictions >= len(queries) - cap
        # The next batch starts with both caches full of the last entries
        # and is just as exact.
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        assert samples.bitmap_cache_size == cap


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
        compiled = featurizer._compiled
        misses = compiled.misses
        featurizer.featurize_ragged(queries)
        assert compiled.misses == misses
        assert compiled.hits >= len(queries)

    def test_cache_is_bounded_and_evicts_lru(self, parts, tiny_workload, monkeypatch):
        monkeypatch.setattr(featurization, "MAX_CACHED_QUERIES", 8)
        featurizer = make_featurizer(parts)
        compiled = featurizer._compiled
        queries = [labelled.query for labelled in tiny_workload[:20]]
        for query in queries:
            featurizer.featurize_ragged([query])
        assert len(compiled) <= 8
        assert compiled.evictions >= len(queries) - 8
        # The most recently compiled query is still cached.
        hits = compiled.hits
        featurizer.featurize_ragged(queries[-1:])
        assert compiled.hits == hits + 1

    def test_invalid_cache_cap_rejected(self, parts, monkeypatch):
        monkeypatch.setattr(featurization, "MAX_CACHED_QUERIES", 0)
        with pytest.raises(ValueError):
            make_featurizer(parts)


TITLE_AFTER_1990 = Predicate("title", "production_year", Operator.GT, 1990)
TITLE_JOIN = JoinCondition("movie_companies", "movie_id", "title", "id")


class TestProbeSharing:
    def test_identical_probes_share_one_matrix_row(self, parts):
        featurizer = make_featurizer(parts)
        # Two distinct queries with the same (table, predicates) probe.
        first = Query(tables=("title",), predicates=(TITLE_AFTER_1990,))
        second = Query(
            tables=("title", "movie_companies"),
            joins=(TITLE_JOIN,),
            predicates=(TITLE_AFTER_1990,),
        )
        dataset = featurizer.featurize_ragged([first, second])
        assert_same_elements(dataset, reference_featurize(featurizer, [first, second]))
        np.testing.assert_array_equal(dataset.tables.rows, [0, 0, 1])
        assert dataset.tables.features.shape[0] == 2

    def test_plan_cache_hits_credit_the_bitmap_cache(self, parts, tiny_workload):
        """A batch replayed from the compiled-query cache still looks every
        table element up in the samples' bitmap memo once: one hit each."""
        encoding, value_normalizer, samples = parts
        featurizer = QueryFeaturizer(encoding, value_normalizer, samples=samples)
        queries = [labelled.query for labelled in tiny_workload[:15]]
        featurizer.featurize_ragged(queries)
        hits_before = samples.bitmap_cache_hits
        misses_before = samples.bitmap_cache_misses
        featurizer.featurize_ragged(queries)
        num_probes = sum(len(q.tables) for q in queries)
        assert samples.bitmap_cache_hits - hits_before == num_probes
        assert samples.bitmap_cache_misses == misses_before


class TestBitmapMemo:
    @pytest.mark.parametrize("name", tuple(spec.name for spec in registered_datasets()))
    def test_evicted_bitmaps_are_evaluated_again(self, name):
        """Regression: the featurizer kept its own copy of every probe's
        bitmap beside the samples' memo, so ``max_cached_bitmaps`` did not
        bound bitmap memory and a second pass never re-evaluated a probe
        the memo had evicted."""
        spec = next(spec for spec in registered_datasets() if spec.name == name)
        database = spec.generate(scale=0.04, seed=5)
        workload = generate_training_workload(spec, database, num_queries=40, seed=13)
        queries = [labelled.query for labelled in workload]
        samples = MaterializedSamples(database, sample_size=25, seed=5, max_cached_bitmaps=2)
        featurizer = QueryFeaturizer(
            SchemaEncoding.from_schema(database.schema),
            ValueNormalizer.from_database(database),
            samples=samples,
        )
        oracle = reference_featurize(featurizer, queries)
        misses = samples.bitmap_cache_misses
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        first_pass = samples.bitmap_cache_misses - misses
        # Probes repeat within the pass, and two bitmaps do not hold them.
        probes = {
            MaterializedSamples.probe_signature(table, query.predicates)
            for query in queries
            for table in query.tables
        }
        assert first_pass > len(probes)
        assert samples.bitmap_cache_size == 2
        assert_same_elements(featurizer.featurize_ragged(queries), oracle)
        assert samples.bitmap_cache_misses - misses == 2 * first_pass
        assert samples.bitmap_cache_size == 2


class TestElementIds:
    def test_equal_predicates_share_one_predicate_id(self, parts):
        featurizer = make_featurizer(parts)
        queries = [
            Query(tables=("title",), predicates=(TITLE_AFTER_1990,)),
            Query(
                tables=("title", "movie_companies"),
                joins=(TITLE_JOIN,),
                predicates=(
                    Predicate("movie_companies", "company_id", Operator.LT, 50),
                    Predicate("title", "production_year", Operator.GT, 1990.0),
                ),
            ),
        ]
        dataset = featurizer.featurize_ragged(queries)
        assert_same_elements(dataset, reference_featurize(featurizer, queries))
        np.testing.assert_array_equal(dataset.predicates.rows, [0, 1, 0])
        assert dataset.predicates.features.shape[0] == 2

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
