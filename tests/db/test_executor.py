"""Tests of the COUNT(*) executor, including equivalence with a brute-force
nested-loop reference on randomly generated tiny databases."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_executor import nested_loop_cardinality

from repro.db.executor import CardinalityExecutor, _JoinKeyDomain
from repro.db.predicates import Operator
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.db.table import Database, Table


class TestSingleTable:
    def test_no_predicates_counts_all_rows(self, two_table_database):
        query = Query(tables=("fact",))
        assert CardinalityExecutor(two_table_database).execute(query) == 10

    def test_predicate_filters(self, two_table_database):
        query = Query(tables=("fact",), predicates=(Predicate("fact", "value", "=", 5),))
        assert CardinalityExecutor(two_table_database).execute(query) == 4

    def test_empty_result(self, two_table_database):
        query = Query(tables=("fact",), predicates=(Predicate("fact", "value", ">", 100),))
        assert CardinalityExecutor(two_table_database).execute(query) == 0


class TestJoins:
    def test_unfiltered_pk_fk_join_counts_fact_rows(self, two_table_database):
        query = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "dim_id", "dim", "id"),),
        )
        assert CardinalityExecutor(two_table_database).execute(query) == 10

    def test_filter_on_dimension_restricts_fanout(self, two_table_database):
        # category 20 selects dim rows 3 and 4, with fan-outs 3 and 4.
        query = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "dim_id", "dim", "id"),),
            predicates=(Predicate("dim", "category", "=", 20),),
        )
        assert CardinalityExecutor(two_table_database).execute(query) == 7

    def test_filters_on_both_sides(self, two_table_database):
        query = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "dim_id", "dim", "id"),),
            predicates=(
                Predicate("dim", "category", "=", 20),
                Predicate("fact", "value", "=", 5),
            ),
        )
        assert CardinalityExecutor(two_table_database).execute(query) == 2

    def test_cross_product_of_disconnected_tables(self, two_table_database):
        query = Query(tables=("dim", "fact"))
        assert CardinalityExecutor(two_table_database).execute(query) == 40

    def test_empty_base_table_short_circuits(self, two_table_database):
        query = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "dim_id", "dim", "id"),),
            predicates=(Predicate("dim", "category", "=", 999),),
        )
        assert CardinalityExecutor(two_table_database).execute(query) == 0

    def test_matches_nested_loop_on_two_table_database(self, two_table_database):
        query = Query(
            tables=("dim", "fact"),
            joins=(JoinCondition("fact", "dim_id", "dim", "id"),),
            predicates=(Predicate("fact", "value", ">", 5),),
        )
        assert CardinalityExecutor(two_table_database).execute(query) == nested_loop_cardinality(
            two_table_database, query
        )


def _random_star_database(rng: np.random.Generator, num_dim: int, num_fact: int) -> Database:
    """A tiny random star database: one dimension and two fact tables."""
    dim = TableSchema(
        "dim", (ColumnSchema("id", "primary_key"), ColumnSchema("a"), ColumnSchema("b"))
    )
    fact1 = TableSchema(
        "fact1",
        (ColumnSchema("id", "primary_key"), ColumnSchema("dim_id", "foreign_key"), ColumnSchema("x")),
    )
    fact2 = TableSchema(
        "fact2",
        (ColumnSchema("id", "primary_key"), ColumnSchema("dim_id", "foreign_key"), ColumnSchema("y")),
    )
    schema = Schema(
        tables=(dim, fact1, fact2),
        foreign_keys=(
            ForeignKey("fact1", "dim_id", "dim", "id"),
            ForeignKey("fact2", "dim_id", "dim", "id"),
        ),
    )
    tables = {
        "dim": Table(
            dim,
            {
                "id": np.arange(1, num_dim + 1),
                "a": rng.integers(0, 4, num_dim),
                "b": rng.integers(0, 3, num_dim),
            },
        ),
        "fact1": Table(
            fact1,
            {
                "id": np.arange(1, num_fact + 1),
                "dim_id": rng.integers(1, num_dim + 1, num_fact),
                "x": rng.integers(0, 5, num_fact),
            },
        ),
        "fact2": Table(
            fact2,
            {
                "id": np.arange(1, num_fact + 1),
                "dim_id": rng.integers(1, num_dim + 1, num_fact),
                "y": rng.integers(0, 5, num_fact),
            },
        ),
    }
    return Database(schema, tables)


@st.composite
def random_query_case(draw):
    seed = draw(st.integers(0, 10_000))
    num_joins = draw(st.integers(0, 2))
    num_predicates = draw(st.integers(0, 3))
    return seed, num_joins, num_predicates


class TestAgainstNestedLoopReference:
    @given(random_query_case())
    @settings(max_examples=60, deadline=None)
    def test_tree_counting_matches_nested_loop(self, case):
        seed, num_joins, num_predicates = case
        rng = np.random.default_rng(seed)
        database = _random_star_database(rng, num_dim=6, num_fact=10)
        tables = ["dim"]
        joins = []
        if num_joins >= 1:
            tables.append("fact1")
            joins.append(JoinCondition("fact1", "dim_id", "dim", "id"))
        if num_joins >= 2:
            tables.append("fact2")
            joins.append(JoinCondition("fact2", "dim_id", "dim", "id"))
        predicate_pool = [
            ("dim", "a", 4),
            ("dim", "b", 3),
            ("fact1", "x", 5),
            ("fact2", "y", 5),
        ]
        predicates = []
        for _ in range(num_predicates):
            table, column, domain = predicate_pool[int(rng.integers(len(predicate_pool)))]
            if table not in tables:
                continue
            operator = [Operator.EQ, Operator.LT, Operator.GT][int(rng.integers(3))]
            predicates.append(Predicate(table, column, operator, int(rng.integers(domain))))
        query = Query(tables=tuple(tables), joins=tuple(joins), predicates=tuple(predicates))
        expected = nested_loop_cardinality(database, query)
        assert CardinalityExecutor(database).execute(query) == expected


class TestCyclicFallback:
    def test_parallel_edges_use_expansion_path(self):
        """Two join conditions between the same pair of tables (a cycle in the
        multigraph sense) must still be answered correctly."""
        left = TableSchema(
            "left", (ColumnSchema("id", "primary_key"), ColumnSchema("k1"), ColumnSchema("k2"))
        )
        right = TableSchema(
            "right", (ColumnSchema("id", "primary_key"), ColumnSchema("k1"), ColumnSchema("k2"))
        )
        schema = Schema(tables=(left, right))
        database = Database(
            schema,
            {
                "left": Table(
                    left, {"id": np.array([1, 2]), "k1": np.array([1, 2]), "k2": np.array([7, 8])}
                ),
                "right": Table(
                    right,
                    {"id": np.array([1, 2, 3]), "k1": np.array([1, 1, 2]), "k2": np.array([7, 9, 8])},
                ),
            },
        )
        query = Query(
            tables=("left", "right"),
            joins=(
                JoinCondition("left", "k1", "right", "k1"),
                JoinCondition("left", "k2", "right", "k2"),
            ),
        )
        # Matching rows: left1-right1 (k1=1,k2=7), left2-right3 (k1=2,k2=8).
        assert CardinalityExecutor(database).execute(query) == 2
        assert nested_loop_cardinality(database, query) == 2

    def test_executor_validates_schema(self, two_table_database):
        executor = CardinalityExecutor(two_table_database)
        with pytest.raises(ValueError):
            executor.execute(Query(tables=("missing",)))


class TestJoinKeyDomain:
    """The per-edge fold (child weights per key) and the gather of parent
    factors from its totals by key code."""

    @staticmethod
    def _factors(child_keys, parent_keys, child_weights=None):
        child_keys = np.asarray(child_keys, dtype=np.int64)
        parent_keys = np.asarray(parent_keys, dtype=np.int64)
        if child_weights is None:
            child_weights = np.ones(len(child_keys))
        domain = _JoinKeyDomain(child_keys, parent_keys)
        totals = domain.fold(child_keys, np.asarray(child_weights, dtype=np.float64))
        return domain, totals[domain.codes(parent_keys)]

    def test_absent_keys_give_factor_zero(self):
        domain, factors = self._factors([2, 5, 5], [1, 2, 5, 9], child_weights=[3, 4, 6])
        assert domain.union is None
        np.testing.assert_array_equal(factors, [0.0, 3.0, 10.0, 0.0])

    def test_empty_child_side(self):
        domain, factors = self._factors([], [1, 2, 3])
        assert domain.union is None and domain.size == 4
        np.testing.assert_array_equal(factors, np.zeros(3))

    def test_empty_parent_side(self):
        _, factors = self._factors([1, 2], [])
        assert factors.shape == (0,)

    def test_keys_at_zero_and_domain_maximum(self):
        domain, factors = self._factors([0, 0, 7], [7, 0, 3])
        assert domain.union is None and domain.size == 8
        np.testing.assert_array_equal(factors, [1.0, 2.0, 0.0])

    @pytest.mark.parametrize(
        "shift",
        [lambda k: k - 50, lambda k: k + 2**40, lambda k: k * 2**40 - 5 * 2**40],
        ids=["negative", "huge", "negative_and_huge"],
    )
    def test_rank_codes_match_dense_answer(self, shift):
        rng = np.random.default_rng(0)
        child = rng.integers(0, 20, 30)
        parent = rng.integers(0, 25, 10)
        weights = rng.integers(1, 5, 30)
        dense_domain, dense = self._factors(child, parent, weights)
        sparse_domain, sparse = self._factors(shift(child), shift(parent), weights)
        assert dense_domain.union is None and sparse_domain.union is not None
        np.testing.assert_array_equal(sparse, dense)

    def test_keys_spread_wider_than_rows_use_rank_codes(self):
        domain, factors = self._factors([10**6, 3], [3, 10**6, 4])
        assert domain.union is not None and domain.size == 3
        np.testing.assert_array_equal(factors, [1.0, 1.0, 0.0])

    @pytest.mark.parametrize("keys", [[2, 5, 5, 0], [-3, 2**41, -3]], ids=["dense", "ranked"])
    def test_fold_without_weights_counts_rows_as_float64(self, keys):
        keys = np.asarray(keys, dtype=np.int64)
        domain = _JoinKeyDomain(keys, keys)
        unweighted = domain.fold(keys, None)
        assert unweighted.dtype == np.float64
        np.testing.assert_array_equal(unweighted, domain.fold(keys, np.ones(len(keys))))

    def test_executor_builds_one_domain_per_edge(self, two_table_database):
        executor = CardinalityExecutor(two_table_database)
        forward = JoinCondition("fact", "dim_id", "dim", "id")
        backward = JoinCondition("dim", "id", "fact", "dim_id")
        assert executor._key_domain(forward) is executor._key_domain(backward)
