"""Differential test of every executor configuration against the nested loop.

Random tree-shaped schemas of 2-4 tables get join keys from one of several
key domains per edge: dense ``1..N`` (keys are their own domain codes),
sparse (widely spaced ids), negative, and huge (at or above 2**40), the last
three of which count through rank codes.  Foreign keys may dangle.  Every
connected sub-plan of a query with random predicates must then count exactly
what :func:`~repro.db.executor.nested_loop_cardinality` counts, on every
combination of block size, worker budget and scan memo, and on a
:class:`~repro.db.sampled.SampledCardinalityExecutor` whose budget covers
every table (which makes its labels exact).
"""

from __future__ import annotations

import itertools

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.db.executor import CardinalityExecutor, nested_loop_cardinality
from repro.db.query import JoinCondition, Predicate, Query
from repro.db.sampled import SampledCardinalityExecutor
from repro.db.schema import ColumnSchema, ForeignKey, Schema, TableSchema
from repro.db.table import Database, Table

# Maps base ids 0..N+1 into each key domain; every map is injective, so the
# join structure is the same in every domain.
KEY_DOMAINS = {
    "dense": lambda keys: keys,
    "sparse": lambda keys: keys * 100_003 + 17,
    "negative": lambda keys: keys - 40,
    "huge": lambda keys: keys * 2**40 + 2**40,
    "negative_and_huge": lambda keys: keys * 2**40 - 3 * 2**40,
}

# (block_rows, max_workers, scan_cache_capacity)
CONFIGURATIONS = list(itertools.product((None, 1, 7), (None, 2, 7), (None, 64)))


@st.composite
def tree_databases(draw):
    """A random tree of 2-4 tables and a query with random predicates over it."""
    num_tables = draw(st.integers(2, 4))
    parents = [None] + [draw(st.integers(0, index - 1)) for index in range(1, num_tables)]
    domains = [draw(st.sampled_from(sorted(KEY_DOMAINS))) for _ in range(num_tables)]
    sizes = [draw(st.integers(1, 6)) for _ in range(num_tables)]
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)

    schemas, tables, foreign_keys = [], {}, []
    for index, parent in enumerate(parents):
        name = f"t{index}"
        columns = [ColumnSchema("id", "primary_key"), ColumnSchema("val")]
        data = {
            "id": KEY_DOMAINS[domains[index]](np.arange(1, sizes[index] + 1, dtype=np.int64)),
            "val": rng.integers(0, 4, sizes[index]),
        }
        if parent is not None:
            columns.append(ColumnSchema("ref", "foreign_key"))
            # Base ids 0 and N+1 dangle: no parent row carries them.
            base_refs = rng.integers(0, sizes[parent] + 2, sizes[index])
            data["ref"] = KEY_DOMAINS[domains[parent]](base_refs.astype(np.int64))
            foreign_keys.append(ForeignKey(name, "ref", f"t{parent}", "id"))
        schema = TableSchema(name, tuple(columns))
        schemas.append(schema)
        tables[name] = Table(schema, data)
    database = Database(Schema(tables=tuple(schemas), foreign_keys=tuple(foreign_keys)), tables)

    predicates = []
    for index in range(num_tables):
        if draw(st.booleans()):
            operator = draw(st.sampled_from(("=", "<", ">")))
            predicates.append(Predicate(f"t{index}", "val", operator, draw(st.integers(0, 3))))
    query = Query(
        tables=tuple(f"t{index}" for index in range(num_tables)),
        joins=tuple(
            JoinCondition(f"t{index}", "ref", f"t{parent}", "id")
            for index, parent in enumerate(parents)
            if parent is not None
        ),
        predicates=tuple(predicates),
    )
    return database, query


@given(tree_databases())
@settings(max_examples=60, deadline=None)
def test_every_configuration_matches_nested_loop(case):
    database, query = case
    executors = [
        CardinalityExecutor(
            database, block_rows=block_rows, max_workers=workers, scan_cache_capacity=memo
        )
        for block_rows, workers, memo in CONFIGURATIONS
    ]
    largest = max(database.table(name).num_rows for name in database.table_names)
    sampled = SampledCardinalityExecutor(database, sample_rows=largest)
    try:
        # Sub-plans share base scans, so a memo-on executor also serves the
        # later sub-plans from scans cached by the earlier ones.
        for subquery in query.connected_subqueries():
            expected = nested_loop_cardinality(database, subquery)
            for configuration, executor in zip(CONFIGURATIONS, executors):
                assert executor.execute(subquery) == expected, (configuration, subquery)
            label = sampled.execute(subquery)
            assert label.exact and label.observed == expected
    finally:
        for executor in executors:
            executor._pool.close()
