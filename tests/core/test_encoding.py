"""Tests of the one-hot schema encoding.

The one-hot vectors themselves are written only by ``featurize_ragged``:
``test_featurization_oracle.py`` checks them against the reference (joins
listed in either direction included), and ``test_compiled_plan.py`` checks
that unknown tables, joins and key columns raise ``KeyError``.
"""

from __future__ import annotations

import pytest

from repro.core.encoding import SchemaEncoding
from repro.datasets.imdb import imdb_schema


@pytest.fixture(scope="module")
def encoding():
    return SchemaEncoding.from_schema(imdb_schema())


class TestDimensions:
    def test_counts_match_schema(self, encoding):
        schema = imdb_schema()
        assert encoding.num_tables == len(schema.table_names) == 6
        assert encoding.num_joins == len(schema.join_edges()) == 5
        assert encoding.num_columns == len(schema.non_key_columns())
        assert encoding.num_operators == 3

    def test_every_vocabulary_numbers_its_entries_once(self, encoding):
        indexes = ("table_index", "join_index", "column_index", "operator_index")
        for index in (getattr(encoding, name) for name in indexes):
            assert sorted(index.values()) == list(range(len(index)))

    def test_key_columns_are_not_predicable(self, encoding):
        assert "title.id" not in encoding.column_index
        assert "title.production_year" in encoding.column_index
