"""Tests of the random query generator (paper Section 3.3)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.db.executor import CardinalityExecutor
from repro.db.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.db.table import Database, Table
from repro.workload.generator import (
    LabelledQuery,
    QueryGenerator,
    WorkloadConfig,
    split_by_joins,
)


@pytest.fixture(scope="module")
def uneven_join_graph_database():
    """A database whose join graph has two components of different sizes.

    Component one is ``{a, b}`` (via ``b.a_id``), component two is
    ``{c, d, e}`` (via ``d.c_id`` and ``e.d_id``).  A requested join count of
    two is therefore only satisfiable when the join tree starts inside the
    second component — exactly the situation where the generator used to
    silently emit fewer joins than drawn.
    """

    def table_schema(name: str, fk_column: str | None) -> TableSchema:
        columns = [ColumnSchema("id", "primary_key")]
        if fk_column is not None:
            columns.append(ColumnSchema(fk_column, "foreign_key"))
        columns.append(ColumnSchema("value"))
        return TableSchema(name=name, columns=tuple(columns))

    schemas = {
        "a": table_schema("a", None),
        "b": table_schema("b", "a_id"),
        "c": table_schema("c", None),
        "d": table_schema("d", "c_id"),
        "e": table_schema("e", "d_id"),
    }
    schema = Schema(
        tables=tuple(schemas.values()),
        foreign_keys=(
            ForeignKey("b", "a_id", "a", "id"),
            ForeignKey("d", "c_id", "c", "id"),
            ForeignKey("e", "d_id", "d", "id"),
        ),
    )
    rng = np.random.default_rng(0)
    ids = np.arange(1, 13)
    tables = {}
    for name, table in schemas.items():
        columns = {"id": ids.copy(), "value": rng.integers(0, 10, size=ids.size)}
        for column in table.columns:
            if column.name.endswith("_id"):
                columns[column.name] = rng.choice(ids, size=ids.size)
        tables[name] = Table(table, columns)
    return Database(schema, tables)


class TestConfig:
    def test_rejects_non_positive_query_count(self):
        with pytest.raises(ValueError):
            WorkloadConfig(num_queries=0)

    def test_rejects_inverted_join_bounds(self):
        with pytest.raises(ValueError):
            WorkloadConfig(min_joins=3, max_joins=2)


class TestGeneratedWorkload:
    def test_requested_number_of_queries(self, tiny_workload):
        assert len(tiny_workload) == 120

    def test_queries_are_unique(self, tiny_workload):
        signatures = {labelled.query.signature() for labelled in tiny_workload}
        assert len(signatures) == len(tiny_workload)

    def test_join_counts_within_bounds(self, tiny_workload):
        assert all(0 <= labelled.num_joins <= 2 for labelled in tiny_workload)

    def test_all_join_counts_are_represented(self, tiny_workload):
        assert set(split_by_joins(tiny_workload)) == {0, 1, 2}

    def test_queries_are_connected(self, tiny_workload):
        assert all(labelled.query.is_connected() for labelled in tiny_workload)

    def test_no_empty_results(self, tiny_workload):
        assert all(labelled.cardinality > 0 for labelled in tiny_workload)

    def test_labels_match_the_executor(self, tiny_database, tiny_workload):
        for labelled in tiny_workload[:15]:
            assert CardinalityExecutor(tiny_database).execute(labelled.query) == labelled.cardinality

    def test_queries_validate_against_schema(self, tiny_database, tiny_workload):
        for labelled in tiny_workload:
            labelled.query.validate_against(tiny_database.schema)

    def test_predicates_only_on_non_key_columns(self, tiny_database, tiny_workload):
        schema = tiny_database.schema
        for labelled in tiny_workload:
            for predicate in labelled.query.predicates:
                assert not schema.table(predicate.table).column(predicate.column).is_key

    def test_labelled_query_unpacking(self, tiny_workload):
        query, cardinality = tiny_workload[0]
        assert query is tiny_workload[0].query
        assert cardinality == tiny_workload[0].cardinality


class TestGeneratorBehaviour:
    def test_deterministic_given_seed(self, tiny_database):
        config = WorkloadConfig(num_queries=30, max_joins=2, seed=5)
        first = QueryGenerator(tiny_database, config).generate()
        second = QueryGenerator(tiny_database, config).generate()
        assert [q.query.signature() for q in first] == [q.query.signature() for q in second]
        assert [q.cardinality for q in first] == [q.cardinality for q in second]

    def test_different_seed_changes_workload(self, tiny_database):
        first = QueryGenerator(tiny_database, WorkloadConfig(num_queries=30, seed=5)).generate()
        second = QueryGenerator(tiny_database, WorkloadConfig(num_queries=30, seed=6)).generate()
        assert {q.query.signature() for q in first} != {q.query.signature() for q in second}

    def test_fixed_join_count_strata(self, tiny_database):
        config = WorkloadConfig(num_queries=20, min_joins=2, max_joins=2, seed=8)
        workload = QueryGenerator(tiny_database, config).generate()
        assert all(labelled.num_joins == 2 for labelled in workload)

    def test_max_predicates_per_table_is_honoured(self, tiny_database):
        config = WorkloadConfig(num_queries=40, max_joins=1, max_predicates_per_table=1, seed=9)
        workload = QueryGenerator(tiny_database, config).generate()
        for labelled in workload:
            per_table = {}
            for predicate in labelled.query.predicates:
                per_table[predicate.table] = per_table.get(predicate.table, 0) + 1
            assert all(count <= 1 for count in per_table.values())

    def test_predicate_tables_restriction(self, tiny_database):
        config = WorkloadConfig(
            num_queries=30, max_joins=2, seed=10, predicate_tables=("title",)
        )
        workload = QueryGenerator(tiny_database, config).generate()
        for labelled in workload:
            assert all(p.table == "title" for p in labelled.query.predicates)

    def test_generate_override_count(self, tiny_database):
        generator = QueryGenerator(tiny_database, WorkloadConfig(num_queries=50, seed=12))
        assert len(generator.generate(num_queries=10)) == 10

    def test_impossible_workload_raises(self, tiny_database):
        # Asking for far more unique single-table queries than the bounded
        # attempt budget allows must fail loudly rather than loop forever.
        config = WorkloadConfig(
            num_queries=100_000, max_joins=0, seed=1, max_attempts_factor=1
        )
        with pytest.raises(RuntimeError):
            QueryGenerator(tiny_database, config).generate()


class TestMinJoinsEnforcement:
    def test_min_joins_is_always_honoured(self, uneven_join_graph_database):
        """Every generated query carries at least ``min_joins`` joins, even
        though most start tables cannot seed a two-join tree."""
        config = WorkloadConfig(
            num_queries=12, min_joins=2, max_joins=2, seed=3, skip_empty_results=False
        )
        workload = QueryGenerator(uneven_join_graph_database, config).generate()
        assert all(labelled.num_joins == 2 for labelled in workload)
        for labelled in workload:
            assert set(labelled.query.tables) == {"c", "d", "e"}

    def test_mixed_draws_only_use_eligible_start_tables(
        self, uneven_join_graph_database
    ):
        config = WorkloadConfig(
            num_queries=40, min_joins=1, max_joins=2, seed=4, skip_empty_results=False
        )
        workload = QueryGenerator(uneven_join_graph_database, config).generate()
        assert all(labelled.num_joins >= 1 for labelled in workload)
        buckets = split_by_joins(workload)
        # Two-join trees exist and never leak out of the only component that
        # can host them.
        assert 2 in buckets
        for labelled in buckets[2]:
            assert set(labelled.query.tables) == {"c", "d", "e"}

    def test_unsatisfiable_min_joins_raises(self, two_table_database):
        # The dim-fact join graph supports at most one join per query.
        config = WorkloadConfig(num_queries=5, min_joins=2, max_joins=3, seed=1)
        with pytest.raises(ValueError, match="min_joins"):
            QueryGenerator(two_table_database, config)

    def test_unreachable_max_joins_is_clamped(self, two_table_database):
        """A max_joins beyond the join graph's reach must not produce
        undersized join trees — the draw range is clamped instead."""
        config = WorkloadConfig(
            num_queries=10, min_joins=1, max_joins=5, seed=2, skip_empty_results=False
        )
        workload = QueryGenerator(two_table_database, config).generate()
        assert all(labelled.num_joins == 1 for labelled in workload)

    def test_join_count_buckets_are_exact(self, tiny_database):
        """split_by_joins buckets reflect the drawn join counts exactly (the
        old early-break silently shifted queries into smaller buckets)."""
        config = WorkloadConfig(num_queries=60, min_joins=1, max_joins=2, seed=21)
        workload = QueryGenerator(tiny_database, config).generate()
        assert set(split_by_joins(workload)) <= {1, 2}
        assert all(labelled.num_joins >= 1 for labelled in workload)


class TestSplitByJoins:
    def test_groups_and_orders_by_join_count(self, tiny_workload):
        grouped = split_by_joins(tiny_workload)
        assert list(grouped) == sorted(grouped)
        assert sum(len(queries) for queries in grouped.values()) == len(tiny_workload)
        for join_count, queries in grouped.items():
            assert all(labelled.num_joins == join_count for labelled in queries)

    def test_empty_workload(self):
        assert split_by_joins([]) == {}

    def test_labelled_query_dataclass(self):
        labelled = LabelledQuery.__new__(LabelledQuery)
        assert hasattr(labelled, "__dataclass_fields__")
