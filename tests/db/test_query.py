"""Tests of the query representation."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.predicates import Operator
from repro.db.query import JoinCondition, Predicate, Query, queries_are_duplicates


def fact_dim_join() -> JoinCondition:
    return JoinCondition("fact", "dim_id", "dim", "id")


class TestPredicate:
    def test_accepts_operator_symbols(self):
        predicate = Predicate("t", "c", "=", 5)
        assert predicate.operator is Operator.EQ

    def test_qualified_column_and_sql(self):
        predicate = Predicate("title", "production_year", Operator.GT, 2010)
        assert predicate.qualified_column == "title.production_year"
        assert predicate.to_sql() == "title.production_year > 2010"

    @pytest.mark.parametrize(
        "value", [2.5, -0.5, float("nan"), float("inf"), float("-inf"), np.float32(2.5)]
    )
    def test_rejects_literals_that_are_not_finite_integers(self, value):
        """``int(2.5)`` would silently turn ``c < 2.5`` into ``c < 2``, a
        different count; literals follow the int64 column loader's rule."""
        with pytest.raises(ValueError, match="not a finite integer"):
            Predicate("t", "c", "<", value)

    @pytest.mark.parametrize("value", [3, 3.0, np.int64(3), np.float64(3.0), np.int32(3)])
    def test_accepts_integral_literals_as_python_ints(self, value):
        predicate = Predicate("t", "c", "<", value)
        assert predicate.value == 3 and type(predicate.value) is int


class TestJoinCondition:
    def test_canonical_is_direction_independent(self):
        forward = JoinCondition("fact", "dim_id", "dim", "id")
        backward = JoinCondition("dim", "id", "fact", "dim_id")
        assert forward.canonical == backward.canonical

    def test_other_table_and_column_of(self):
        join = fact_dim_join()
        assert join.other_table("fact") == "dim"
        assert join.column_of("dim") == "id"
        with pytest.raises(ValueError):
            join.other_table("missing")
        with pytest.raises(ValueError):
            join.column_of("missing")


class TestQueryValidation:
    def test_requires_tables(self):
        with pytest.raises(ValueError):
            Query(tables=())

    def test_rejects_duplicate_tables(self):
        with pytest.raises(ValueError):
            Query(tables=("dim", "dim"))

    def test_rejects_join_outside_tables(self):
        with pytest.raises(ValueError):
            Query(tables=("dim",), joins=(fact_dim_join(),))

    def test_rejects_predicate_outside_tables(self):
        with pytest.raises(ValueError):
            Query(tables=("dim",), predicates=(Predicate("fact", "value", "=", 1),))

    def test_validate_against_schema(self, two_table_database):
        query = Query(tables=("dim", "fact"), joins=(fact_dim_join(),))
        query.validate_against(two_table_database.schema)
        bad_table = Query(tables=("missing",))
        with pytest.raises(ValueError):
            bad_table.validate_against(two_table_database.schema)
        bad_column = Query(
            tables=("dim",), predicates=(Predicate("dim", "missing", "=", 1),)
        )
        with pytest.raises(ValueError):
            bad_column.validate_against(two_table_database.schema)
        bad_join = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "missing", "dim", "id"),),
        )
        with pytest.raises(ValueError):
            bad_join.validate_against(two_table_database.schema)


class TestQueryProperties:
    def test_counts(self):
        query = Query(
            tables=("dim", "fact"),
            joins=(fact_dim_join(),),
            predicates=(Predicate("dim", "category", "=", 10),),
        )
        assert query.num_joins == 1
        assert query.num_predicates == 1
        assert query.predicates_on("dim") == query.predicates
        assert query.predicates_on("fact") == ()

    def test_connectivity(self):
        connected = Query(tables=("dim", "fact"), joins=(fact_dim_join(),))
        disconnected = Query(tables=("dim", "fact"))
        assert connected.is_connected()
        assert not disconnected.is_connected()
        assert Query(tables=("dim",)).is_connected()

    def test_to_sql(self):
        query = Query(
            tables=("dim", "fact"),
            joins=(fact_dim_join(),),
            predicates=(Predicate("dim", "category", "=", 10),),
        )
        sql = query.to_sql()
        assert sql.startswith("SELECT COUNT(*) FROM dim, fact WHERE")
        assert "fact.dim_id = dim.id" in sql
        assert "dim.category = 10" in sql
        assert Query(tables=("dim",)).to_sql() == "SELECT COUNT(*) FROM dim;"

    def test_signature_is_order_independent(self):
        first = Query(
            tables=("dim", "fact"),
            joins=(fact_dim_join(),),
            predicates=(
                Predicate("dim", "category", "=", 10),
                Predicate("fact", "value", ">", 5),
            ),
        )
        second = Query(
            tables=("fact", "dim"),
            joins=(JoinCondition("dim", "id", "fact", "dim_id"),),
            predicates=(
                Predicate("fact", "value", ">", 5),
                Predicate("dim", "category", "=", 10),
            ),
        )
        assert queries_are_duplicates(first, second)

    def test_signature_distinguishes_different_literals(self):
        first = Query(tables=("dim",), predicates=(Predicate("dim", "category", "=", 10),))
        second = Query(tables=("dim",), predicates=(Predicate("dim", "category", "=", 20),))
        assert not queries_are_duplicates(first, second)
