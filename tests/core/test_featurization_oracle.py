"""The featurization oracle: ``featurize_ragged`` against the per-query reference.

``QueryFeaturizer.featurize_ragged`` (compiled element keys -> ragged
arrays) must equal ``reference_featurize(featurizer, queries)`` (built
element by element in ``reference_featurization.py``) bit for bit, on every
registered dataset, featurization variant and compute dtype, with the
default compiled-query cache and bitmap memo and with both capped at 8 or at
2 entries — small caps evict all the time and must never change a single
feature — and whether the workload is featurized as one batch or in
serving-sized micro-batches that share one featurizer.
The workloads include literals below a column's minimum and above its
maximum (clamped to 0 and 1), a single-valued column (normalized to 0) and
joins listed with their sides swapped (the same one-hot).

The workload path stores each set's distinct elements once, so it is
compared through ``rows``: ``features[rows]`` must equal the reference's
one-row-per-element features.  The rows must follow element keys the test
computes from the queries alone: one row per distinct key, equal keys on
equal rows, rows numbered in first-seen order, and the same rows when the
batch is featurized again.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
import pytest
from reference_featurization import assert_same_elements, reference_featurize

from repro.core.batching import RaggedSet
from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core import featurization
from repro.core.featurization import QueryFeaturizer
from repro.core.normalization import ValueNormalizer
from repro.datasets import registered_datasets
from repro.db.query import JoinCondition, Query
from repro.db.sampling import MaterializedSamples
from repro.db.table import Database, Table
from repro.workload.generator import generate_training_workload

DATASET_NAMES = tuple(spec.name for spec in registered_datasets())
# Caps of the compiled-query cache and the bitmap memo; None keeps the defaults.
CACHE_CAPS = (None, 8, 2)


def with_single_valued_column(database: Database, table: str, column: str) -> Database:
    """``database`` with ``table.column`` set to its minimum in every row."""
    source = database.table(table)
    columns = {name: source.column(name) for name in source.schema.column_names}
    columns[column] = np.full_like(columns[column], columns[column].min())
    tables = {name: database.table(name) for name in database.table_names}
    tables[table] = Table(source.schema, columns)
    return Database(database.schema, tables)


def out_of_range(database: Database, query: Query, above: bool) -> Query:
    """``query`` with every literal past its column's maximum (or minimum)."""

    def literal(predicate):
        values = database.table(predicate.table).column(predicate.column)
        return int(values.max()) + 7 if above else int(values.min()) - 7

    predicates = tuple(replace(p, value=literal(p)) for p in query.predicates)
    return Query(query.tables, query.joins, predicates)


def swapped(join: JoinCondition) -> JoinCondition:
    return JoinCondition(join.right_table, join.right_column, join.left_table, join.left_column)


@pytest.fixture(scope="module")
def dataset_parts():
    """Per-dataset (database, samples by cache cap, queries) at miniature
    scale.

    Every query list starts with a lone table — empty join and predicate
    sets — and ends with a few queries repeated as-is, a few with every
    set listed in reverse, so cache hits (and same-signature queries in
    another element order) happen inside a batch, and a few with literals
    out of their column's range or with swapped join sides.  The column of
    the workload's first predicate is made single-valued.
    """
    parts = {}
    for spec in registered_datasets():
        database = spec.generate(scale=0.04, seed=5)
        workload = generate_training_workload(spec, database, num_queries=60, seed=13)
        queries = [Query(tables=(database.table_names[0],))]
        queries += [labelled.query for labelled in workload]
        first = next(q.predicates[0] for q in queries if q.predicates)
        database = with_single_valued_column(database, first.table, first.column)
        samples = {
            cap: MaterializedSamples(
                database,
                sample_size=25,
                seed=5,
                max_cached_bitmaps=cap or MaterializedSamples.DEFAULT_MAX_CACHED_BITMAPS,
            )
            for cap in CACHE_CAPS
        }
        with_predicates = [q for q in queries if q.predicates][:5]
        with_joins = [q for q in queries if q.joins][:5]
        queries += queries[1:6]
        queries += [
            Query(q.tables[::-1], q.joins[::-1], q.predicates[::-1])
            for q in queries[1:] if len(q.tables) > 1
        ][:5]
        queries += [out_of_range(database, q, above=False) for q in with_predicates]
        queries += [out_of_range(database, q, above=True) for q in with_predicates]
        queries += [
            Query(q.tables, tuple(swapped(j) for j in q.joins), q.predicates)
            for q in with_joins
        ]
        parts[spec.name] = (database, samples, queries)
    return parts


def make_featurizer(database, samples, variant, dtype):
    return QueryFeaturizer(
        SchemaEncoding.from_schema(database.schema),
        ValueNormalizer.from_database(database),
        samples=samples,
        variant=variant,
        dtype=dtype,
    )


def element_keys(queries, variant) -> dict[str, list]:
    """Every set element's identity, from the queries alone: a table with
    the predicates on it (its table alone without samples), a join's
    canonical form and a predicate's column, operator and literal."""

    def table_key(query, table):
        if variant is FeaturizationVariant.NO_SAMPLES:
            return table
        return table, tuple(
            sorted((p.column, p.operator.value, p.value) for p in query.predicates_on(table))
        )

    return {
        "tables": [table_key(q, table) for q in queries for table in q.tables],
        "joins": [join.canonical for q in queries for join in q.joins],
        "predicates": [
            (p.table, p.column, p.operator.value, p.value) for q in queries for p in q.predicates
        ],
    }


def assert_rows_follow_keys(ragged_set: RaggedSet, keys: list, context: str) -> None:
    """One row per distinct key, equal keys on equal rows, first-seen order."""
    rows = ragged_set.rows.tolist()
    assert len(rows) == len(keys), context
    distinct = len(set(keys))
    assert ragged_set.features.shape[0] == distinct, context
    # Each key maps to one row and the rows are as many as the keys, so
    # equal keys share a row and distinct keys never do.
    assert len(set(zip(keys, rows))) == distinct, context
    assert len(set(rows)) == distinct, context
    # Row d is introduced by its first element, after row d - 1's.
    numbers, first = np.unique(ragged_set.rows, return_index=True)
    np.testing.assert_array_equal(numbers, np.arange(distinct), err_msg=context)
    assert (np.diff(first) > 0).all(), context


@pytest.mark.parametrize("batch_size", (None, 7, 1), ids=("whole", "batch7", "batch1"))
@pytest.mark.parametrize("cap", CACHE_CAPS, ids=("default", "cap8", "cap2"))
@pytest.mark.parametrize("dtype", (np.float32, np.float64), ids=("float32", "float64"))
@pytest.mark.parametrize("variant", tuple(FeaturizationVariant), ids=lambda v: v.value)
@pytest.mark.parametrize("name", DATASET_NAMES)
def test_featurize_ragged_matches_per_query_oracle(
    dataset_parts, monkeypatch, name, variant, dtype, cap, batch_size
):
    database, samples, queries = dataset_parts[name]
    if cap is not None:
        monkeypatch.setattr(featurization, "MAX_CACHED_QUERIES", cap)
    featurizer = make_featurizer(database, samples[cap], variant, dtype)
    if cap is not None:
        assert featurizer._compiled.capacity == samples[cap].max_cached_bitmaps == cap
    oracle = reference_featurize(featurizer, queries)
    step = batch_size or len(queries)
    # The second pass replays the compiled keys (and, at the small caps,
    # compiles evicted queries and evaluates evicted bitmaps again).
    first_pass_rows = []
    for attempt in range(2):
        for batch, start in enumerate(range(0, len(queries), step)):
            stop = min(start + step, len(queries))
            context = (
                f"{name}:{variant.value}:{np.dtype(dtype).name}:cap={cap}"
                f":pass{attempt}:queries[{start}:{stop}]"
            )
            got = featurizer.featurize_ragged(queries[start:stop])
            assert_same_elements(got, oracle.slice(start, stop), context)
            for set_name, keys in element_keys(queries[start:stop], variant).items():
                assert_rows_follow_keys(getattr(got, set_name), keys, f"{context}:{set_name}")
            rows = [getattr(got, set_name).rows for set_name in ("tables", "joins", "predicates")]
            if attempt == 0:
                first_pass_rows.append(rows)
            else:
                for again, before in zip(rows, first_pass_rows[batch]):
                    np.testing.assert_array_equal(again, before, err_msg=context)


@pytest.mark.parametrize("name", DATASET_NAMES)
def test_workloads_reach_clamping_and_a_single_valued_column(dataset_parts, name):
    """The oracle's inputs exercise every literal-normalization rule."""
    database, _, queries = dataset_parts[name]
    normalizer = ValueNormalizer.from_database(database)
    predicates = [p for q in queries for p in q.predicates]
    bounds = [normalizer.bounds(p.table, p.column) for p in predicates]
    assert any(low == high for low, high in bounds)
    assert any(p.value < low for p, (low, _) in zip(predicates, bounds))
    assert any(p.value > high for p, (_, high) in zip(predicates, bounds))
    joins = {join for q in queries for join in q.joins}
    assert any(swapped(join) in joins for join in joins)
