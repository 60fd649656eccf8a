"""The per-query reference featurization that ``featurize_ragged`` is tested against.

:func:`reference_featurize` builds each set element's vector on its own, in
float64, by concatenating the pieces the paper defines (Sections 3.1 and
3.4): a one-hot table id and the qualifying-sample fraction or bitmap; a
one-hot join id padded to the join width; a one-hot column id, a one-hot
operator id and the literal min/max-normalized and clamped to [0, 1] (0 on a
single-valued column).  It
reads only the encoding's index dicts, the value normalizer's ``bounds`` and
the samples' ``bitmap``/``qualifying_count`` — never the compiled plan, the
lookup tables or the featurizer's literal normalization — so it checks the
production path instead of re-running it.  Its sets hold one feature row per
element (``rows`` is ``arange``); :func:`stack_sets` builds that layout from
hand-made per-query arrays, and :func:`assert_same_elements` compares two
layouts element by element.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.batching import RaggedDataset, RaggedSet, offsets_from_lengths
from repro.core.config import FeaturizationVariant
from repro.core.featurization import QueryFeaturizer
from repro.db.query import Query


def reference_featurize(
    featurizer: QueryFeaturizer,
    queries: Sequence[Query],
    labels: np.ndarray | None = None,
    cardinalities: np.ndarray | None = None,
) -> RaggedDataset:
    """``queries`` featurized element by element, cast to ``featurizer.dtype``."""
    encoding, samples, variant = featurizer.encoding, featurizer.samples, featurizer.variant
    num_tables, num_columns = len(encoding.table_index), len(encoding.column_index)
    num_operators = len(encoding.operator_index)
    join_width = max(len(encoding.join_index), 1)
    predicate_width = num_columns + num_operators + 1

    def one_hot(index: int, size: int) -> np.ndarray:
        vector = np.zeros(size)
        vector[index] = 1.0
        return vector

    def table_vector(query: Query, table: str) -> np.ndarray:
        vector = one_hot(encoding.table_index[table], num_tables)
        predicates = query.predicates_on(table)
        if variant is FeaturizationVariant.NUM_SAMPLES:
            fraction = samples.qualifying_count(table, predicates) / samples.sample_size
            return np.concatenate((vector, [fraction]))
        if variant is FeaturizationVariant.BITMAPS:
            return np.concatenate((vector, samples.bitmap(table, predicates).astype(np.float64)))
        return vector

    def join_vector(join) -> np.ndarray:
        return one_hot(encoding.join_index[join.canonical], join_width)

    def predicate_vector(predicate) -> np.ndarray:
        table, column = predicate.table, predicate.column
        minimum, maximum = featurizer.value_normalizer.bounds(table, column)
        normalized = 0.0
        if maximum > minimum:
            normalized = float(
                np.clip((float(predicate.value) - minimum) / (maximum - minimum), 0.0, 1.0)
            )
        return np.concatenate(
            (
                one_hot(encoding.column_index[f"{table}.{column}"], num_columns),
                one_hot(encoding.operator_index[predicate.operator.value], num_operators),
                [normalized],
            )
        )

    # Every query has a table; its join and predicate sets may be empty.
    per_query = [
        (
            np.array([table_vector(query, table) for table in query.tables]),
            np.array([join_vector(join) for join in query.joins]).reshape(-1, join_width),
            np.array([predicate_vector(p) for p in query.predicates]).reshape(-1, predicate_width),
        )
        for query in queries
    ]
    return stack_sets(per_query, labels, cardinalities, dtype=featurizer.dtype)


def assert_same_elements(got: RaggedDataset, want: RaggedDataset, context: str = "") -> None:
    """Every element's feature row (``features[rows]``) and the offsets of
    every set are equal bit for bit, in the same dtype."""
    for name in ("tables", "joins", "predicates"):
        a, b = getattr(got, name), getattr(want, name)
        message = f"{context}:{name}"
        assert a.features.dtype == b.features.dtype, message
        np.testing.assert_array_equal(a.features[a.rows], b.features[b.rows], err_msg=message)
        assert a.features[a.rows].tobytes() == b.features[b.rows].tobytes(), message
        np.testing.assert_array_equal(a.offsets, b.offsets, err_msg=message)


def stack_sets(
    per_query: Sequence[tuple[np.ndarray, np.ndarray, np.ndarray]],
    labels: np.ndarray | None = None,
    cardinalities: np.ndarray | None = None,
    dtype: np.dtype | str | None = None,
) -> RaggedDataset:
    """Per-query ``(tables, joins, predicates)`` feature arrays in the ragged
    layout, one row per element, cast to ``dtype`` (default: their own)."""

    def ragged(arrays: list[np.ndarray]) -> RaggedSet:
        features = np.concatenate(arrays).astype(arrays[0].dtype if dtype is None else dtype)
        offsets = offsets_from_lengths([array.shape[0] for array in arrays])
        return RaggedSet(features, offsets, rows=np.arange(features.shape[0]))

    return RaggedDataset(
        *(ragged([sets[position] for sets in per_query]) for position in range(3)),
        labels=labels,
        cardinalities=cardinalities,
    )
