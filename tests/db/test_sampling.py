"""Tests of materialized samples and bitmap semantics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.predicates import Operator
from repro.db.query import Predicate
from repro.db.sampling import MaterializedSamples


class TestConstruction:
    def test_sample_size_must_be_positive(self, two_table_database):
        with pytest.raises(ValueError):
            MaterializedSamples(two_table_database, sample_size=0)

    def test_small_table_sample_covers_all_rows(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=100, seed=1)
        sample = samples.sample("dim")
        assert sample.num_sampled == 4
        assert sample.sample_size == 100
        assert sample.scale_factor == pytest.approx(1.0)

    def test_large_table_sample_is_bounded(self, tiny_database):
        samples = MaterializedSamples(tiny_database, sample_size=50, seed=1)
        sample = samples.sample("title")
        assert sample.num_sampled == 50
        assert sample.scale_factor == pytest.approx(tiny_database.table("title").num_rows / 50)

    def test_unknown_table(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=10, seed=1)
        with pytest.raises(KeyError):
            samples.sample("missing")

    def test_deterministic_for_a_seed(self, tiny_database):
        first = MaterializedSamples(tiny_database, sample_size=20, seed=5)
        second = MaterializedSamples(tiny_database, sample_size=20, seed=5)
        np.testing.assert_array_equal(
            first.sample("cast_info").row_indices, second.sample("cast_info").row_indices
        )


class TestBitmaps:
    def test_bitmap_length_is_sample_size(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        bitmap = samples.bitmap("fact", [])
        assert bitmap.shape == (30,)
        # All sampled positions qualify when there are no predicates; padding
        # positions beyond the table size never qualify.
        assert bitmap.sum() == 10

    def test_bitmap_matches_direct_evaluation(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=100, seed=3)
        predicates = [Predicate("fact", "value", Operator.GT, 6)]
        bitmap = samples.bitmap("fact", predicates)
        sample_rows = samples.sample("fact").row_indices
        values = two_table_database.table("fact").column("value")[sample_rows]
        np.testing.assert_array_equal(bitmap[: len(sample_rows)], values > 6)

    def test_qualifying_count_and_rows_are_consistent(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=100, seed=3)
        predicates = [Predicate("fact", "value", Operator.EQ, 5)]
        count = samples.qualifying_count("fact", predicates)
        rows = samples.qualifying_rows("fact", predicates)
        assert count == len(rows) == 4
        values = two_table_database.table("fact").column("value")[rows]
        assert (values == 5).all()

    def test_bitmap_ignores_predicates_on_other_tables(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=100, seed=3)
        predicates = [Predicate("dim", "category", Operator.EQ, 10)]
        assert samples.bitmap("fact", predicates).sum() == 10


class TestBitmapCache:
    def test_repeated_probes_hit_the_cache(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        predicates = [Predicate("fact", "value", Operator.GT, 6)]
        first = samples.bitmap("fact", predicates)
        assert samples.bitmap_cache_misses == 1
        assert samples.bitmap_cache_hits == 0
        second = samples.bitmap("fact", predicates)
        assert samples.bitmap_cache_misses == 1
        assert samples.bitmap_cache_hits == 1
        np.testing.assert_array_equal(first, second)

    def test_signature_is_order_independent(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        forward = [
            Predicate("fact", "value", Operator.GT, 5),
            Predicate("fact", "dim_id", Operator.LT, 3),
        ]
        samples.bitmap("fact", forward)
        samples.bitmap("fact", list(reversed(forward)))
        assert samples.bitmap_cache_misses == 1
        assert samples.bitmap_cache_hits == 1

    def test_returned_bitmap_is_a_private_copy(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        bitmap = samples.bitmap("fact", [])
        bitmap[:] = False  # mutating the returned array must not poison the cache
        assert samples.bitmap("fact", []).sum() == 10

    def test_clear_resets_cache_and_counters(self, two_table_database):
        samples = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        samples.bitmap("fact", [])
        samples.bitmap("fact", [])
        assert samples.bitmap_cache_size == 1
        samples.clear_bitmap_cache()
        assert samples.bitmap_cache_size == 0
        assert samples.bitmap_cache_hits == 0
        assert samples.bitmap_cache_misses == 0

    def test_from_row_indices_does_not_reuse_fresh_draw_bitmaps(self, two_table_database):
        original = MaterializedSamples(two_table_database, sample_size=30, seed=1)
        restored = MaterializedSamples.from_row_indices(
            two_table_database,
            sample_size=30,
            row_indices=original.row_indices_by_table(),
            seed=999,
        )
        assert restored.bitmap_cache_size == 0
        np.testing.assert_array_equal(
            restored.bitmap("fact", []), original.bitmap("fact", [])
        )

    def test_cache_is_lru_bounded(self, two_table_database):
        samples = MaterializedSamples(
            two_table_database, sample_size=30, seed=1, max_cached_bitmaps=2
        )
        fact_probe = [Predicate("fact", "value", Operator.GT, 6)]
        samples.bitmap("fact", [])          # cached: (fact, ())
        samples.bitmap("fact", fact_probe)  # cached: (fact, ()), (fact, GT 6)
        samples.bitmap("fact", [])          # touch (fact, ()) -> most recent
        samples.bitmap("dim", [])           # evicts (fact, GT 6), the LRU entry
        assert samples.bitmap_cache_size == 2
        misses = samples.bitmap_cache_misses
        samples.bitmap("fact", [])          # still cached
        assert samples.bitmap_cache_misses == misses
        samples.bitmap("fact", fact_probe)  # was evicted -> recomputed
        assert samples.bitmap_cache_misses == misses + 1

    def test_invalid_cache_bound_raises(self, two_table_database):
        with pytest.raises(ValueError):
            MaterializedSamples(two_table_database, sample_size=30, max_cached_bitmaps=0)
