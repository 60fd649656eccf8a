"""Query featurization: queries become collections of feature-vector sets.

Following Sections 3.1 and 3.4 of the paper, a query ``(T_q, J_q, P_q)``
becomes three sets of fixed-width vectors:

* one vector per table — a one-hot table id, optionally followed by the
  normalized number of qualifying materialized samples or the full
  qualifying-sample bitmap,
* one vector per join — a one-hot join id,
* one vector per predicate — one-hot column id, one-hot operator id and the
  literal normalized to [0, 1] with the column's min/max.

Queries without joins or without predicates simply have empty join/predicate
sets; the ragged layout stores no element for them and the model's segment
mean pools them to a zero vector.

:meth:`QueryFeaturizer.featurize_ragged` is the only featurization path.
Each distinct query compiles once into its *element keys* — plain tuples of
table ids, sample-probe signatures, join ids and ``(column id, operator id,
literal)`` predicate keys — kept in an :class:`~repro.utils.lru.LRU` by
query signature.  A batch concatenates its queries' keys, deduplicates each
set in first-seen order, looks every table element's bitmap up in the
samples' memo (the only bitmap memo) and assembles, with a few
fancy-indexed writes, ``(distinct_elements, width)`` arrays, one row per
distinct element of each set, plus each element's row index and CSR
offsets — the layout training and prediction both read.  Compiled entries
are never mutated and both memos are thread-safe LRUs, so threads
share a featurizer without a lock of its own.  Every batch gets fresh
arrays, which took 0.79-0.97x the time of featurizing into reused grow-only
buffers at batch sizes 1-1,024 (imdb ``small``, 2 cores).

The tests check it bit for bit, element by element, against a per-query
reference that builds each element's vector on its own from the paper's
definition (``tests/reference_featurization.py``).

Features are computed in the featurizer's configurable ``dtype`` (float32
by default in serving configurations; see ``MSCNConfig.dtype``).  Literal
normalization is always performed in float64 and rounded once on store, so
float32 and float64 features agree to the last representable bit.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Hashable, Sequence

import numpy as np

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.normalization import ValueNormalizer
from repro.db.query import Query
from repro.db.sampling import MaterializedSamples
from repro.utils.lru import LRU

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from repro.core.batching import RaggedDataset

__all__ = ["QueryFeaturizer", "first_seen"]


def first_seen(keys: Sequence[Hashable]) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate a sequence of hashable keys in first-seen order.

    Returns ``(first, rows)``: ``first[d]`` is the position of the ``d``-th
    distinct key's first occurrence, and ``rows[e]`` the distinct index of
    element ``e``, so ``keys[first[rows[e]]] == keys[e]``.  A dict pass over
    the keys: they are a batch's set elements, tens to a few thousand long,
    where it beats sorting (``np.unique``) by a wide margin.
    """
    index: dict[Hashable, int] = {}
    first: list[int] = []
    rows: list[int] = []
    for position, key in enumerate(keys):
        row = index.get(key)
        if row is None:
            row = index[key] = len(first)
            first.append(position)
        rows.append(row)
    return np.array(first, dtype=np.int64), np.array(rows, dtype=np.int64)


#: Bound on the compiled queries a featurizer keeps (their element keys).
MAX_CACHED_QUERIES = 65536


class _CompiledQuery:
    """The element keys of one query, cached by its signature.

    Plain tuples, one key per set element in ``source``'s order: each
    table's vocabulary id and sample-probe signature, each join's id and
    each predicate's ``(column id, operator id, float literal)``.  Equal
    keys mean equal feature rows.  An entry is never mutated, so threads
    share it freely.  The keys follow ``source``'s element order, so they
    only replay for a query that lists its sets in that same order
    (:meth:`replays`).
    """

    __slots__ = ("source", "table_ids", "probes", "join_ids", "predicates")

    def __init__(
        self,
        source: Query,
        table_ids: tuple[int, ...],
        probes: tuple[tuple, ...],
        join_ids: tuple[int, ...],
        predicates: tuple[tuple[int, int, float], ...],
    ):
        self.source = source
        self.table_ids = table_ids
        self.probes = probes
        self.join_ids = join_ids
        self.predicates = predicates

    def replays(self, query: Query) -> bool:
        """Whether ``query`` lists its tables, joins and predicates in the
        compiled order (the signature alone is order independent)."""
        source = self.source
        return source is query or (
            source.tables == query.tables
            and source.joins == query.joins
            and source.predicates == query.predicates
        )


class QueryFeaturizer:
    """Turns queries into feature-vector sets.

    Parameters
    ----------
    encoding:
        One-hot vocabularies derived from the schema.
    value_normalizer:
        Per-column min/max bounds for literal normalization.
    samples:
        Materialized base-table samples; required for the ``NUM_SAMPLES`` and
        ``BITMAPS`` variants, ignored by ``NO_SAMPLES``.
    variant:
        Which sampling enrichment to attach to table vectors (Figure 4).
    dtype:
        Compute dtype of all produced feature arrays (float64 by default for
        standalone use; estimators pass their configured serving dtype).
    """

    def __init__(
        self,
        encoding: SchemaEncoding,
        value_normalizer: ValueNormalizer,
        samples: MaterializedSamples | None = None,
        variant: FeaturizationVariant = FeaturizationVariant.BITMAPS,
        dtype: np.dtype | str = np.float64,
    ):
        variant = FeaturizationVariant(variant)
        if variant is not FeaturizationVariant.NO_SAMPLES and samples is None:
            raise ValueError(f"variant {variant.value!r} requires materialized samples")
        self.encoding = encoding
        self.value_normalizer = value_normalizer
        self.samples = samples
        self.variant = variant
        self.dtype = np.dtype(dtype)
        self._needs_samples = variant is not FeaturizationVariant.NO_SAMPLES
        self._compiled = LRU(MAX_CACHED_QUERIES)
        # Lookup tables, one row per vocabulary entry: featurizing reduces
        # to gathering integer ids and fancy-indexing into them.  Join rows
        # carry the zero-padding up to the (possibly widened) join width.
        self._table_eye = np.eye(encoding.num_tables, dtype=self.dtype)
        self._join_rows = np.zeros((encoding.num_joins, self.join_feature_width), dtype=self.dtype)
        self._join_rows[:, : encoding.num_joins] = np.eye(encoding.num_joins)
        # Per-column bounds, indexed by column id, kept in float64 so literal
        # normalization is identical across compute dtypes.  Degenerate
        # columns (max <= min) normalize to 0.0; their span is 1.0 only to
        # keep the division well-defined.
        self._column_min = np.zeros(encoding.num_columns, dtype=np.float64)
        self._column_span = np.ones(encoding.num_columns, dtype=np.float64)
        self._column_degenerate = np.zeros(encoding.num_columns, dtype=bool)
        for key, column_id in encoding.column_index.items():
            minimum, maximum = value_normalizer.bounds(*key.split(".", 1))
            self._column_min[column_id] = minimum
            if maximum <= minimum:
                self._column_degenerate[column_id] = True
            else:
                self._column_span[column_id] = maximum - minimum

    # -- feature widths --------------------------------------------------
    @property
    def sample_feature_width(self) -> int:
        if self.variant is FeaturizationVariant.NO_SAMPLES:
            return 0
        if self.variant is FeaturizationVariant.NUM_SAMPLES:
            return 1
        return self.samples.sample_size  # BITMAPS

    @property
    def table_feature_width(self) -> int:
        return self.encoding.num_tables + self.sample_feature_width

    @property
    def join_feature_width(self) -> int:
        # A query without joins still needs a non-degenerate feature width so
        # the join module has well-defined parameters.
        return max(self.encoding.num_joins, 1)

    @property
    def predicate_feature_width(self) -> int:
        return self.encoding.num_columns + self.encoding.num_operators + 1

    # -- featurization ---------------------------------------------------
    def featurize_ragged(
        self,
        queries: Sequence[Query],
        cardinalities: np.ndarray | None = None,
        labels: np.ndarray | None = None,
    ) -> "RaggedDataset":
        """Featurize a workload into the ragged (CSR) layout.

        Per set, only the *distinct* elements get a feature row, in
        first-seen order; each set's ``rows`` maps every element, flattened
        in query order, to its row, alongside per-query offsets.  The
        compiled element keys decide which elements are equal, so sub-plans
        that share tables, joins and predicates build (and the model
        projects) each shared element once.  Every table element looks its
        bitmap up in the samples' memo once.  Literals are min/max-normalized
        per column and clamped to ``[0, 1]``.
        The arrays are contiguous and already in the model dtype, so the
        forward pass consumes them without copying.
        """
        from repro.core.batching import (
            RaggedDataset,
            RaggedSet,
            offsets_from_lengths,
        )

        if not queries:
            raise ValueError("cannot featurize an empty workload")

        compiled = [self._compiled_query(query) for query in queries]
        encoding = self.encoding

        def ragged(features: np.ndarray, attribute: str, rows: np.ndarray) -> RaggedSet:
            lengths = [len(getattr(entry, attribute)) for entry in compiled]
            return RaggedSet(features, offsets_from_lengths(lengths), rows)

        # Tables: a probe signature names its table, so equal probes are
        # equal elements.
        table_ids = [key for entry in compiled for key in entry.table_ids]
        probes = [key for entry in compiled for key in entry.probes]
        first, table_rows = first_seen(probes if self._needs_samples else table_ids)
        table_features = np.zeros((first.shape[0], self.table_feature_width), dtype=self.dtype)
        table_features[:, : encoding.num_tables] = self._table_eye[
            np.array(table_ids, dtype=np.int64)[first]
        ]
        if self._needs_samples:
            # One memo lookup per element keeps the samples' hit and miss
            # counters exact; only the distinct elements' bitmaps are kept.
            looked_up = [self.samples.probe_bitmap(probe) for probe in probes]
            bitmaps = np.array([looked_up[position] for position in first.tolist()])
            if self.variant is FeaturizationVariant.NUM_SAMPLES:
                table_features[:, encoding.num_tables] = (
                    bitmaps.sum(axis=1) / self.samples.sample_size
                )
            else:
                table_features[:, encoding.num_tables :] = bitmaps

        # Joins (a plain gather: join rows are complete lookup-table rows).
        join_ids = [key for entry in compiled for key in entry.join_ids]
        first, join_rows = first_seen(join_ids)
        join_features = np.zeros((first.shape[0], self.join_feature_width), dtype=self.dtype)
        if join_ids:
            np.take(
                self._join_rows, np.array(join_ids, dtype=np.int64)[first], axis=0,
                out=join_features,
            )

        # Predicates, from each distinct (column id, operator id, literal).
        keys = [key for entry in compiled for key in entry.predicates]
        first, predicate_rows = first_seen(keys)
        distinct = np.array([keys[position] for position in first.tolist()], dtype=np.float64)
        predicate_features = np.zeros(
            (first.shape[0], self.predicate_feature_width), dtype=self.dtype
        )
        if keys:
            column_ids = distinct[:, 0].astype(np.int64)
            operator_ids = distinct[:, 1].astype(np.int64)
            elements = np.arange(first.shape[0])
            predicate_features[elements, column_ids] = 1.0
            predicate_features[elements, encoding.num_columns + operator_ids] = 1.0
            predicate_features[:, -1] = self._normalized_literals(column_ids, distinct[:, 2])

        return RaggedDataset(
            tables=ragged(table_features, "table_ids", table_rows),
            joins=ragged(join_features, "join_ids", join_rows),
            predicates=ragged(predicate_features, "predicates", predicate_rows),
            labels=labels,
            cardinalities=cardinalities,
        )

    # -- compiled element keys ---------------------------------------------
    def _compiled_query(self, query: Query) -> _CompiledQuery:
        """The cached element keys of ``query`` (compiled on first sight)."""
        signature = query.signature()
        compiled = self._compiled.get(signature)
        if compiled is None or not compiled.replays(query):
            compiled = self._compile(query)
            # A reordered query of a cached signature replaces its entry.
            self._compiled.put(signature, compiled)
        return compiled

    def _compile(self, query: Query) -> _CompiledQuery:
        encoding = self.encoding
        table_ids = []
        for table in query.tables:
            try:
                table_ids.append(encoding.table_index[table])
            except KeyError:
                raise KeyError(
                    f"table {table!r} is not part of the encoded schema"
                ) from None
        probes = ()
        if self._needs_samples:
            probes = tuple(
                MaterializedSamples.probe_signature(table, query.predicates)
                for table in query.tables
            )
        join_ids = []
        for join in query.joins:
            try:
                join_ids.append(encoding.join_index[join.canonical])
            except KeyError:
                raise KeyError(
                    f"join {join.canonical!r} is not part of the encoded schema"
                ) from None
        predicates = []
        for predicate in query.predicates:
            key = f"{predicate.table}.{predicate.column}"
            try:
                column_id = encoding.column_index[key]
            except KeyError:
                raise KeyError(
                    f"column {key!r} is not a predicable (non-key) column"
                ) from None
            operator_id = encoding.operator_index[predicate.operator.value]
            predicates.append((column_id, operator_id, float(predicate.value)))
        return _CompiledQuery(
            query, tuple(table_ids), probes, tuple(join_ids), tuple(predicates)
        )

    def _normalized_literals(
        self, column_ids: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Vectorized literal normalization (always in float64, see module doc)."""
        normalized = (values - self._column_min[column_ids]) / self._column_span[column_ids]
        normalized = np.clip(normalized, 0.0, 1.0)
        normalized[self._column_degenerate[column_ids]] = 0.0
        return normalized
