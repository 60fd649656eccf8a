"""Tests of hash indexes."""

from __future__ import annotations

import numpy as np

from repro.db.index import HashIndex, IndexSet


class TestHashIndex:
    def test_lookup_returns_all_matching_rows(self, two_table_database):
        index = HashIndex(two_table_database.table("fact"), "dim_id")
        np.testing.assert_array_equal(index.lookup(3), [3, 4, 5])
        assert index.lookup(999).size == 0

    def test_num_distinct(self, two_table_database):
        index = HashIndex(two_table_database.table("fact"), "dim_id")
        assert index.num_distinct() == 4


class TestIndexSet:
    def test_indexes_built_lazily_and_cached(self, two_table_database):
        indexes = IndexSet(two_table_database)
        first = indexes.index("fact", "dim_id")
        second = indexes.index("fact", "dim_id")
        assert first is second

    def test_index_agrees_with_column_scan(self, tiny_database):
        indexes = IndexSet(tiny_database)
        index = indexes.index("movie_companies", "movie_id")
        column = tiny_database.table("movie_companies").column("movie_id")
        probe = int(column[0])
        np.testing.assert_array_equal(index.lookup(probe), np.flatnonzero(column == probe))
