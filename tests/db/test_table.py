"""Tests of columnar table storage."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.schema import ColumnSchema, Schema, TableSchema
from repro.db.table import Database, Table


def make_schema() -> TableSchema:
    return TableSchema("t", (ColumnSchema("id", "primary_key"), ColumnSchema("value")))


class TestTable:
    def test_stores_columns_as_int64(self):
        table = Table(make_schema(), {"id": np.array([1, 2]), "value": np.array([3.0, 4.0])})
        assert table.column("id").dtype == np.int64
        assert table.num_rows == 2
        assert len(table) == 2

    def test_rejects_missing_columns(self):
        with pytest.raises(ValueError):
            Table(make_schema(), {"id": np.array([1])})

    def test_rejects_extra_columns(self):
        with pytest.raises(ValueError):
            Table(
                make_schema(),
                {"id": np.array([1]), "value": np.array([1]), "extra": np.array([1])},
            )

    def test_rejects_ragged_columns(self):
        with pytest.raises(ValueError):
            Table(make_schema(), {"id": np.array([1, 2]), "value": np.array([1])})

    def test_rejects_2d_columns(self):
        with pytest.raises(ValueError):
            Table(make_schema(), {"id": np.ones((2, 2)), "value": np.array([1, 2])})

    def test_column_values_with_row_selection(self):
        table = Table(make_schema(), {"id": np.array([1, 2, 3]), "value": np.array([10, 20, 30])})
        np.testing.assert_array_equal(table.column_values("value", np.array([2, 0])), [30, 10])

    def test_unknown_column_raises(self):
        table = Table(make_schema(), {"id": np.array([1]), "value": np.array([1])})
        with pytest.raises(KeyError):
            table.column("missing")

    def test_accepts_integral_floats_and_bools(self):
        table = Table(
            make_schema(),
            {"id": np.array([1.0, 2.0, -3.0]), "value": np.array([True, False, True])},
        )
        np.testing.assert_array_equal(table.column("id"), [1, 2, -3])
        np.testing.assert_array_equal(table.column("value"), [1, 0, 1])

    def test_rejects_fractional_floats(self):
        with pytest.raises(ValueError, match="non-integral"):
            Table(make_schema(), {"id": np.array([1, 2]), "value": np.array([2.5, 3.0])})

    def test_rejects_nan_and_inf(self):
        with pytest.raises(ValueError, match="non-finite"):
            Table(make_schema(), {"id": np.array([1, 2]), "value": np.array([np.nan, 1.0])})
        with pytest.raises(ValueError, match="non-finite"):
            Table(make_schema(), {"id": np.array([1, 2]), "value": np.array([np.inf, 1.0])})

    def test_rejects_non_numeric_dtype(self):
        with pytest.raises(ValueError, match="non-numeric"):
            Table(make_schema(), {"id": np.array([1]), "value": np.array(["x"])})

    def test_nbytes_counts_column_storage(self):
        table = Table(make_schema(), {"id": np.arange(10), "value": np.arange(10)})
        assert table.nbytes == 2 * 10 * 8
        empty = np.array([], dtype=np.int64)
        assert Table(make_schema(), {"id": empty, "value": empty}).nbytes == 0


class TestDatabase:
    def test_requires_all_schema_tables(self, two_table_database):
        schema = two_table_database.schema
        with pytest.raises(ValueError):
            Database(schema, {"dim": two_table_database.table("dim")})

    def test_rejects_unexpected_tables(self, two_table_database):
        schema = Schema(tables=(two_table_database.schema.table("dim"),))
        with pytest.raises(ValueError):
            Database(
                schema,
                {
                    "dim": two_table_database.table("dim"),
                    "fact": two_table_database.table("fact"),
                },
            )

    def test_table_access(self, two_table_database):
        assert two_table_database.table("dim").num_rows == 4
        with pytest.raises(KeyError):
            two_table_database.table("missing")

    def test_total_rows(self, two_table_database):
        assert two_table_database.total_rows() == 14

    def test_memory_bytes_sums_tables(self, two_table_database):
        expected = sum(
            two_table_database.table(name).nbytes for name in two_table_database.table_names
        )
        assert two_table_database.memory_bytes() == expected == (2 * 4 + 3 * 10) * 8
