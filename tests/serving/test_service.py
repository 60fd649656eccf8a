"""Tests of the micro-batched, cache-fronted estimation service."""

from __future__ import annotations

import threading

import numpy as np
import pytest

from repro.core.config import MSCNConfig
from repro.core.estimator import MSCNEstimator, PredictionTiming
from repro.db.query import Query
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.serving import EstimationService, ServiceConfig, ServiceStats
from repro.workload.scale import ScaleWorkloadConfig, generate_scale_workload


@pytest.fixture(scope="module")
def serving_estimator(tiny_database, tiny_samples, tiny_workload):
    config = MSCNConfig(hidden_units=24, epochs=6, batch_size=32, num_samples=50, seed=13)
    estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
    estimator.fit(tiny_workload)
    return estimator


@pytest.fixture(scope="module")
def serving_queries(tiny_workload):
    return [labelled.query for labelled in tiny_workload]


class TestCachingFrontEnd:
    def test_served_estimates_match_the_direct_path(
        self, serving_estimator, serving_queries
    ):
        with EstimationService(serving_estimator) as service:
            served = service.estimate_many(serving_queries)
        np.testing.assert_array_equal(
            served, serving_estimator.estimate_many(serving_queries)
        )

    def test_repeat_traffic_is_served_from_cache(
        self, serving_estimator, serving_queries
    ):
        with EstimationService(serving_estimator) as service:
            first = service.estimate_many(serving_queries)
            second = service.estimate_many(serving_queries)
            stats = service.stats()
        np.testing.assert_array_equal(first, second)
        assert stats.cache_hits == len(serving_queries)
        assert stats.cache_misses == len(serving_queries)
        assert stats.cache_hit_rate == pytest.approx(0.5)
        # The repeat pass never reached the model: still exactly one batch.
        assert stats.coalesced_batches == 1
        assert stats.batch_size_histogram == {len(serving_queries): 1}

    def test_scalar_estimate_matches_batched(self, serving_estimator, serving_queries):
        with EstimationService(serving_estimator) as service:
            single = service.estimate(serving_queries[0])
            batched = service.estimate_many([serving_queries[0]])[0]
        assert single == batched

    def test_signature_canonicalization_shares_entries(self, serving_estimator):
        """Semantically identical queries with permuted clause order hit the
        same cache entry (the cache keys on Query.signature())."""
        query = Query(
            tables=("title", "movie_companies"),
            joins=(
                [
                    join
                    for join in _joins_between("title", "movie_companies",
                                               serving_estimator)
                ][0],
            ),
        )
        permuted = Query(
            tables=tuple(reversed(query.tables)),
            joins=query.joins,
        )
        assert query.signature() == permuted.signature()
        with EstimationService(serving_estimator) as service:
            first = service.estimate(query)
            second = service.estimate(permuted)
            stats = service.stats()
        assert first == second
        assert stats.cache_hits == 1
        assert stats.cache_misses == 1

    def test_empty_request(self, serving_estimator):
        with EstimationService(serving_estimator) as service:
            assert service.estimate_many([]).size == 0
        assert service.stats().num_queries == 0

    def test_lru_eviction_is_reported(self, serving_estimator, serving_queries):
        config = ServiceConfig(cache_capacity=8)
        with EstimationService(serving_estimator, config=config) as service:
            service.estimate_many(serving_queries[:20])
            stats = service.stats()
        assert len(service.cache) <= 8
        assert stats.cache_evictions == 20 - 8

    def test_estimate_after_close_raises(self, serving_estimator, serving_queries):
        service = EstimationService(serving_estimator)
        service.estimate(serving_queries[0])
        service.close()
        with pytest.raises(RuntimeError):
            service.estimate(serving_queries[1])


def _joins_between(left, right, estimator):
    from repro.db.query import JoinCondition

    edge = estimator.database.schema.join_edge_between(left, right)
    assert edge is not None
    yield JoinCondition.from_foreign_key(edge)


class TestMicroBatchCoalescing:
    def test_concurrent_callers_coalesce_into_shared_batches(
        self, serving_estimator, serving_queries, gated_model, wait_until
    ):
        """Callers that arrive while a batch runs queue up, and the next
        leader answers all of them in one fused pass."""
        num_callers = 16
        gated = gated_model(serving_estimator)
        with EstimationService(gated) as service:
            results: dict[int, float] = {}

            def caller(position: int) -> None:
                results[position] = service.estimate(serving_queries[position])

            threads = [
                threading.Thread(target=caller, args=(position,))
                for position in range(num_callers)
            ]
            try:
                # Hold the first leader inside its batch, let the other 15
                # callers queue behind it, then release.
                threads[0].start()
                wait_until(gated.entered.is_set, message="leader never started computing")
                for thread in threads[1:]:
                    thread.start()
                wait_until(lambda: service.health()["queue_depth"] == num_callers - 1)
            finally:
                gated.gate.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            stats = service.stats()

        assert stats.batch_size_histogram == {1: 1, num_callers - 1: 1}
        first, follow_up = gated.batches
        assert first == [serving_queries[0]]
        assert results[0] == serving_estimator.estimate_many(first)[0]
        # The follow-up batch holds the 15 queued queries in arrival order;
        # each caller got exactly the direct path's answer over that batch.
        assert sorted(map(serving_queries.index, follow_up)) == list(range(1, num_callers))
        reference = serving_estimator.estimate_many(follow_up)
        for query, expected in zip(follow_up, reference):
            assert results[serving_queries.index(query)] == expected

    def test_batches_are_fifo_and_bounded_by_max_batch_size(
        self, serving_estimator, serving_queries, gated_model, wait_until
    ):
        """A leader takes at most ``max_batch_size`` queued queries, oldest
        first; whatever does not fit is led by a later caller, possibly the
        same one looping."""
        queries = serving_queries[:4]
        gated = gated_model(serving_estimator)
        config = ServiceConfig(max_batch_size=2)
        with EstimationService(gated, config=config) as service:
            results: dict[int, float] = {}

            def caller(position: int) -> None:
                results[position] = service.estimate(queries[position])

            threads = [
                threading.Thread(target=caller, args=(position,))
                for position in range(len(queries))
            ]
            try:
                threads[0].start()
                wait_until(gated.entered.is_set, message="leader never started computing")
                for depth, thread in enumerate(threads[1:], start=1):
                    thread.start()
                    wait_until(lambda: service.health()["queue_depth"] == depth)
            finally:
                gated.gate.set()
            for thread in threads:
                thread.join(timeout=30)
                assert not thread.is_alive()
            assert service.health()["queue_depth"] == 0

        assert gated.batches == [queries[:1], queries[1:3], queries[3:]]
        expected = np.concatenate(
            [serving_estimator.estimate_many(batch) for batch in gated.batches]
        )
        np.testing.assert_array_equal([results[i] for i in range(len(queries))], expected)

    def test_concurrent_duplicate_queries_are_computed_once(
        self, serving_estimator, serving_queries
    ):
        """Identical in-flight queries dedupe inside a batch (or are found in
        the cache by a later one): the model sees one instance however many
        callers ask."""
        num_callers = 12
        query = serving_queries[40]
        with EstimationService(serving_estimator) as service:
            barrier = threading.Barrier(num_callers)
            observed: list[float] = []
            lock = threading.Lock()

            def caller() -> None:
                barrier.wait()
                value = service.estimate(query)
                with lock:
                    observed.append(value)

            threads = [threading.Thread(target=caller) for _ in range(num_callers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            stats = service.stats()

        assert len(set(observed)) == 1
        computed = sum(
            size * count for size, count in stats.batch_size_histogram.items()
        )
        assert computed == 1
        assert stats.num_queries == num_callers

    def test_threaded_mixed_traffic_is_consistent(
        self, serving_estimator, serving_queries
    ):
        """Overlapping bulk requests from many threads — with cache hits,
        coalesced misses and in-batch duplicates — return one stable value
        per query: every caller observes the same cached estimate, and that
        estimate tracks the direct path (micro-batch composition may shift
        float32 matmul rounding by ~1e-7 relative, never more)."""
        reference = {
            query.signature(): value
            for query, value in zip(
                serving_queries, serving_estimator.estimate_many(serving_queries)
            )
        }
        num_callers = 8
        with EstimationService(serving_estimator) as service:
            barrier = threading.Barrier(num_callers)
            failures: list[str] = []
            observed: dict[tuple, float] = {}
            observed_lock = threading.Lock()

            def caller(slot: int) -> None:
                rng = np.random.default_rng(slot)
                barrier.wait()
                for _ in range(5):
                    chosen = rng.choice(len(serving_queries), size=24, replace=True)
                    queries = [serving_queries[i] for i in chosen]
                    values = service.estimate_many(queries)
                    for query, value in zip(queries, values):
                        signature = query.signature()
                        expected = reference[signature]
                        if abs(value - expected) > 1e-4 * expected:
                            failures.append(f"{signature}: {value} != {expected}")
                            return
                        with observed_lock:
                            # Each signature is computed at most once, so all
                            # callers must see bit-identical values for it.
                            if observed.setdefault(signature, value) != value:
                                failures.append(f"{signature}: unstable cached value")
                                return

            threads = [
                threading.Thread(target=caller, args=(slot,))
                for slot in range(num_callers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        assert not failures


class TestFallbackRouting:
    @pytest.fixture(scope="class")
    def fallback(self, tiny_database, tiny_samples):
        return RandomSamplingEstimator(tiny_database, tiny_samples)

    @pytest.fixture(scope="class")
    def out_of_distribution_queries(self, tiny_database):
        """3-4-join queries: beyond the 0-2-join training range."""
        scale = generate_scale_workload(
            tiny_database,
            ScaleWorkloadConfig(queries_per_join_count=6, max_joins=4, seed=17),
        )
        queries = [labelled.query for labelled in scale if labelled.num_joins >= 3]
        assert queries
        return queries

    def test_out_of_range_join_counts_route_to_fallback(
        self, serving_estimator, fallback, out_of_distribution_queries
    ):
        config = ServiceConfig(max_joins=2)
        with EstimationService(
            serving_estimator, fallback=fallback, config=config
        ) as service:
            served = service.estimate_many(out_of_distribution_queries)
            stats = service.stats()
        assert stats.fallback_queries == len(out_of_distribution_queries)
        assert stats.fallback_rate == pytest.approx(1.0)
        np.testing.assert_array_equal(
            served, fallback.estimate_many(out_of_distribution_queries)
        )

    def test_in_range_queries_stay_on_the_model(
        self, serving_estimator, fallback, serving_queries
    ):
        config = ServiceConfig(max_joins=2)
        with EstimationService(
            serving_estimator, fallback=fallback, config=config
        ) as service:
            served = service.estimate_many(serving_queries)
            stats = service.stats()
        assert stats.fallback_queries == 0
        np.testing.assert_array_equal(
            served, serving_estimator.estimate_many(serving_queries)
        )

    @pytest.mark.parametrize("max_joins", [0, 1, 2])
    def test_exactly_the_queries_beyond_max_joins_route_to_fallback(
        self, serving_estimator, fallback, serving_queries,
        out_of_distribution_queries, max_joins,
    ):
        queries = serving_queries[:40] + out_of_distribution_queries
        routed = np.array([query.num_joins > max_joins for query in queries])
        assert routed.any() and not routed.all()
        config = ServiceConfig(max_joins=max_joins)
        with EstimationService(
            serving_estimator, fallback=fallback, config=config
        ) as service:
            served = service.estimate_many(queries)
            stats = service.stats()
        assert stats.fallback_queries == int(routed.sum())
        # The model sees only the model-bound queries, as one batch: a
        # float32 forward pass over another batch may differ in the last bit.
        expected = np.empty(len(queries))
        expected[~routed] = serving_estimator.estimate_many(
            [query for query, is_routed in zip(queries, routed) if not is_routed]
        )
        expected[routed] = fallback.estimate_many(
            [query for query, is_routed in zip(queries, routed) if is_routed]
        )
        np.testing.assert_array_equal(served, expected)

    def test_only_queries_within_max_joins_reach_the_model(
        self, serving_estimator, fallback, serving_queries,
        out_of_distribution_queries, gated_model,
    ):
        """Routing happens before the model: every model batch holds only
        queries within ``max_joins``, and a request whose queries are all
        routed runs no model batch at all."""
        mixed = serving_queries[:40]
        assert any(query.num_joins > 1 for query in mixed)
        gated = gated_model(serving_estimator)
        gated.gate.set()
        config = ServiceConfig(max_joins=1)
        with EstimationService(gated, fallback=fallback, config=config) as service:
            service.estimate_many(mixed)
            assert gated.batches
            assert all(query.num_joins <= 1 for batch in gated.batches for query in batch)
            batches = service.stats().coalesced_batches
            assert batches == len(gated.batches)

            service.estimate_many(out_of_distribution_queries)
            stats = service.stats()
        assert len(gated.batches) == batches
        assert stats.coalesced_batches == batches
        assert sum(stats.batch_size_histogram.values()) == batches
        routed = {q.signature() for q in mixed + out_of_distribution_queries if q.num_joins > 1}
        assert stats.fallback_queries == len(routed)

    def test_without_fallback_the_model_answers_everything(
        self, serving_estimator, out_of_distribution_queries
    ):
        config = ServiceConfig(max_joins=0)
        with EstimationService(serving_estimator, config=config) as service:
            served = service.estimate_many(out_of_distribution_queries)
            stats = service.stats()
        assert stats.fallback_queries == 0
        np.testing.assert_array_equal(
            served, serving_estimator.estimate_many(out_of_distribution_queries)
        )


class TestServiceStats:
    def test_snapshot_extends_prediction_timing(
        self, serving_estimator, serving_queries
    ):
        with EstimationService(serving_estimator) as service:
            service.estimate_many(serving_queries)
            service.estimate_many(serving_queries)
            stats = service.stats()
        assert isinstance(stats, ServiceStats)
        assert isinstance(stats, PredictionTiming)
        assert stats.num_queries == 2 * len(serving_queries)
        assert stats.featurization_seconds > 0.0
        assert stats.inference_seconds > 0.0
        assert stats.total_seconds >= stats.featurization_seconds
        assert stats.milliseconds_per_query >= 0.0
        assert stats.bitmap_cache_hits >= 0
        assert "cache hits" in stats.describe()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            ServiceConfig(cache_capacity=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_batch_size=0)
        with pytest.raises(ValueError):
            ServiceConfig(max_joins=-1)

    def test_config_has_no_spread_threshold(self):
        """Routing is on join count alone: the ensemble-spread threshold is
        not a setting."""
        with pytest.raises(TypeError, match="max_spread"):
            ServiceConfig(max_spread=2.0)


class TestSubplanFanout:
    """The optimizer-shaped entry point: sub-plan requests through the cache."""

    def test_subplan_estimates_match_the_model(self, serving_estimator, serving_queries):
        query = next(q for q in serving_queries if q.num_joins >= 2)
        with EstimationService(serving_estimator) as service:
            served = service.estimate_subplans(query)
        direct = serving_estimator.estimate_many(query.connected_subqueries())
        expected = dict(
            zip((frozenset(s.tables) for s in query.connected_subqueries()), direct)
        )
        assert set(served) == set(expected)
        for tables, value in served.items():
            assert value == pytest.approx(expected[tables], rel=1e-6)

    def test_repeated_enumeration_is_pure_cache_traffic(
        self, serving_estimator, serving_queries
    ):
        query = next(q for q in serving_queries if q.num_joins >= 2)
        with EstimationService(serving_estimator) as service:
            first = service.estimate_subplans(query)
            hits_before = service.stats().cache_hits
            second = service.estimate_subplans(query)
            hits_after = service.stats().cache_hits
        assert first == second
        assert hits_after - hits_before == len(query.connected_subqueries())

    def test_shared_subplans_across_queries_hit_the_cache(
        self, serving_estimator, serving_queries
    ):
        query = next(q for q in serving_queries if q.num_joins >= 2)
        sub = query.connected_subqueries()[0]  # a single-table sub-plan
        with EstimationService(serving_estimator) as service:
            service.estimate_many([sub])
            hits_before = service.stats().cache_hits
            service.estimate_subplans(query)
            hits_after = service.stats().cache_hits
        # The earlier standalone request answered at least that sub-plan.
        assert hits_after > hits_before


class TestServedModels:
    """Models other than the default fixture behind the service front-end."""

    def test_float64_model_serves_identically_to_direct(
        self, tiny_database, tiny_samples, tiny_workload, serving_queries
    ):
        config = MSCNConfig(
            hidden_units=24,
            epochs=6,
            batch_size=32,
            num_samples=50,
            seed=13,
            dtype="float64",
        )
        estimator = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        estimator.fit(tiny_workload)
        with EstimationService(estimator) as service:
            served = service.estimate_many(serving_queries)
        np.testing.assert_array_equal(served, estimator.estimate_many(serving_queries))

    def test_swap_to_model_with_other_feature_widths_serves_its_estimates(
        self, tiny_database, tiny_samples, tiny_workload, serving_estimator, serving_queries
    ):
        """After a swap, micro-batches featurize at the new model's widths
        and dtype, so the served answers are the new model's own."""
        config = MSCNConfig(
            hidden_units=16,
            epochs=4,
            batch_size=32,
            num_samples=50,
            seed=7,
            variant="num_samples",
            dtype="float64",
        )
        other = MSCNEstimator(tiny_database, config, samples=tiny_samples)
        other.fit(tiny_workload)
        assert (
            other.featurizer.table_feature_width
            != serving_estimator.featurizer.table_feature_width
        )
        queries = serving_queries[:16]
        with EstimationService(serving_estimator) as service:
            np.testing.assert_array_equal(
                service.estimate_many(queries), serving_estimator.estimate_many(queries)
            )
            service.swap_model(other)
            served = service.estimate_many(queries)
        np.testing.assert_array_equal(served, other.estimate_many(queries))
