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

:meth:`QueryFeaturizer.featurize_ragged` is the only featurization path: a
:class:`CompiledFeaturizerPlan` resolves each distinct query's vocabulary ids
and sample probes once (kept in an :class:`~repro.utils.lru.LRU` by query
signature), and the batch is assembled with a few fancy-indexed writes into
``(distinct_elements, width)`` arrays, one row per distinct element of each
set, plus each element's row index and CSR offsets — the layout training
and prediction both read.  Every batch gets fresh
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

import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np

from repro.core.config import FeaturizationVariant
from repro.core.encoding import SchemaEncoding
from repro.core.normalization import ValueNormalizer
from repro.db.query import Query
from repro.db.sampling import MaterializedSamples
from repro.utils.lru import LRU

if TYPE_CHECKING:  # pragma: no cover - import cycle, type hints only
    from repro.core.batching import RaggedDataset

__all__ = [
    "CompiledFeaturizerPlan",
    "QueryFeaturizer",
    "first_seen",
]


def first_seen(ids: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Deduplicate a 1-D integer array in first-seen order.

    Returns ``(first, rows)``: ``first[d]`` is the position of the ``d``-th
    distinct value's first occurrence, and ``rows[e]`` the distinct index of
    element ``e``, so ``ids == ids[first][rows]``.  A dict pass over the
    values: the arrays are a batch's set elements, tens to a few thousand
    long, where it beats sorting (``np.unique``) by a wide margin.
    """
    index: dict[int, int] = {}
    first: list[int] = []
    rows: list[int] = []
    for position, key in enumerate(ids.tolist()):
        row = index.get(key)
        if row is None:
            row = index[key] = len(first)
            first.append(position)
        rows.append(row)
    return np.array(first, dtype=np.int64), np.array(rows, dtype=np.int64)


@dataclass
class _GatheredSet:
    """One set of a batch: an element id per element, deduplicated.

    ``element_ids`` lists the plan's id of every element in query order
    (``counts`` per query); equal ids mean equal feature rows.  ``first``
    and ``rows`` are :func:`first_seen` of the ids: the distinct elements'
    positions and every element's index into them.
    """

    counts: np.ndarray
    element_ids: np.ndarray
    first: np.ndarray
    rows: np.ndarray

    @classmethod
    def of(cls, counts: np.ndarray, element_ids: np.ndarray) -> "_GatheredSet":
        return cls(counts, element_ids, *first_seen(element_ids))


@dataclass
class _GatheredWorkload:
    """A batch's sets, plus what the distinct elements' features need.

    The vocabulary ids and literals are those of the distinct elements, in
    first-seen order; ``probe_bitmaps`` holds the qualifying-sample bitmap
    row of every distinct table element (``None`` for the ``no_samples``
    variant).
    """

    tables: _GatheredSet
    joins: _GatheredSet
    predicates: _GatheredSet
    table_ids: np.ndarray
    join_ids: np.ndarray
    column_ids: np.ndarray
    operator_ids: np.ndarray
    literal_values: np.ndarray
    probe_bitmaps: "np.ndarray | None"


class _CompiledQuery:
    """Pre-resolved flat ids of one query, cached by its signature.

    Everything featurization would look up per element — table / join /
    column / operator vocabulary ids, float64 literal values, the probe
    ids into the plan's bitmap matrix and the plan's predicate ids —
    resolved once and replayed as numpy concatenation on every later
    appearance of the same query.  The ids
    follow ``source``'s element order, so they only replay for a query that
    lists its sets in that same order (:meth:`replays`).
    """

    __slots__ = (
        "source",
        "table_ids",
        "probe_ids",
        "join_ids",
        "column_ids",
        "operator_ids",
        "literal_values",
        "predicate_ids",
        "num_tables",
        "num_joins",
        "num_predicates",
    )

    def __init__(
        self,
        source: Query,
        table_ids: np.ndarray,
        probe_ids: np.ndarray,
        join_ids: np.ndarray,
        column_ids: np.ndarray,
        operator_ids: np.ndarray,
        literal_values: np.ndarray,
        predicate_ids: np.ndarray,
    ):
        self.source = source
        self.table_ids = table_ids
        self.probe_ids = probe_ids
        self.join_ids = join_ids
        self.column_ids = column_ids
        self.operator_ids = operator_ids
        self.literal_values = literal_values
        self.predicate_ids = predicate_ids
        self.num_tables = table_ids.shape[0]
        self.num_joins = join_ids.shape[0]
        self.num_predicates = column_ids.shape[0]

    def replays(self, query: Query) -> bool:
        """Whether ``query`` lists its tables, joins and predicates in the
        compiled order (the signature alone is order independent)."""
        source = self.source
        return source is query or (
            source.tables == query.tables
            and source.joins == query.joins
            and source.predicates == query.predicates
        )


class CompiledFeaturizerPlan:
    """Precompiled featurization against one (schema, encoding) pair.

    Resolving a query element by element costs Python dict lookups —
    ``table_index[table]``, ``join_index[join.canonical]``,
    ``column_index[f"{t}.{c}"]`` plus a sample-probe key per table — which
    would dominate serving-path featurization once inference itself is
    fused.  The plan compiles each *distinct* query once, memoized by
    :meth:`~repro.db.query.Query.signature` (so re-built query objects with
    the same content hit; one listing the same sets in another order is
    recompiled, because its features follow its own order), into flat int64
    id arrays, and registers each distinct sample probe once in a dense row
    of its bitmap matrix.  Gathering a batch of previously seen queries is
    then pure array assembly: concatenation of the per-query id arrays and
    one fancy-indexed gather of bitmap rows, read once per distinct probe
    from the :class:`~repro.db.sampling.MaterializedSamples` bitmap cache.

    Every set element also gets an *element id*, and elements with equal
    ids have equal feature rows: a table's probe id (its table id for the
    ``no_samples`` variant), a join's join id, and a predicate's plan-level
    predicate id, keyed by (column id, operator id, literal).
    :meth:`gather` deduplicates each set's ids, so a batch builds and
    projects every distinct element once.

    The query cache is an :class:`~repro.utils.lru.LRU` of
    ``max_cached_queries`` entries.  Compiled queries hold indexes into the
    probe matrix and the predicate registry, so neither can be evicted
    entry by entry: once a long-tailed workload has accumulated
    ``4 * max_cached_queries`` distinct probes or predicates, both are
    flushed wholesale — together with every compiled query — at the start
    of the next :meth:`gather`, never while a batch is being compiled (ids
    handed out earlier in the batch must stay valid).

    A plan is safe to share across threads: one lock covers compiling and
    gathering a batch, so no two batches interleave their probe and
    predicate registrations or a flush.
    """

    DEFAULT_MAX_CACHED_QUERIES = 65536

    def __init__(
        self,
        featurizer: "QueryFeaturizer",
        max_cached_queries: int = DEFAULT_MAX_CACHED_QUERIES,
    ):
        encoding = featurizer.encoding
        self._table_index = encoding.table_index
        self._join_index = encoding.join_index
        self._column_index = encoding.column_index
        self._operator_index = encoding.operator_index
        self._samples = featurizer.samples
        self._needs_samples = featurizer.variant is not FeaturizationVariant.NO_SAMPLES
        self.max_cached_queries = max_cached_queries
        self._lock = threading.Lock()
        self._compiled = LRU(max_cached_queries)
        # Signature hits whose element order differs: recompiled, so misses.
        self._reordered = 0
        self._flushes = 0
        self._probe_ids: dict[tuple, int] = {}
        self._predicate_ids: dict[tuple, int] = {}
        self._num_probes = 0
        sample_width = self._samples.sample_size if self._needs_samples else 0
        self._probe_matrix = np.zeros((64 if self._needs_samples else 0, sample_width), dtype=bool)

    # -- per-query compilation --------------------------------------------
    def compile_query(self, query: Query) -> _CompiledQuery:
        """The cached compiled form of ``query`` (compiling on first sight)."""
        with self._lock:
            return self._lookup(query)

    def _lookup(self, query: Query) -> _CompiledQuery:
        signature = query.signature()
        compiled = self._compiled.get(signature)
        if compiled is not None:
            if compiled.replays(query):
                # The compiled entry's probe bitmaps are served from the probe
                # matrix without touching the samples' bitmap cache; credit
                # the reuse so cache observability counts every probe answered.
                if self._needs_samples:
                    self._samples.record_bitmap_reuse(len(compiled.probe_ids))
                return compiled
            self._reordered += 1
        compiled = self._compile(query)
        # A reordered query of a cached signature replaces its entry.
        self._compiled.put(signature, compiled)
        return compiled

    def _compile(self, query: Query) -> _CompiledQuery:
        num_tables = len(query.tables)
        table_ids = np.empty(num_tables, dtype=np.int64)
        probe_ids = np.empty(num_tables if self._needs_samples else 0, dtype=np.int64)
        for slot, table in enumerate(query.tables):
            try:
                table_ids[slot] = self._table_index[table]
            except KeyError:
                raise KeyError(
                    f"table {table!r} is not part of the encoded schema"
                ) from None
            if self._needs_samples:
                probe_ids[slot] = self._probe_id(table, query.predicates_on(table))
        join_ids = np.empty(len(query.joins), dtype=np.int64)
        for slot, join in enumerate(query.joins):
            try:
                join_ids[slot] = self._join_index[join.canonical]
            except KeyError:
                raise KeyError(
                    f"join {join.canonical!r} is not part of the encoded schema"
                ) from None
        num_predicates = len(query.predicates)
        column_ids = np.empty(num_predicates, dtype=np.int64)
        operator_ids = np.empty(num_predicates, dtype=np.int64)
        literal_values = np.empty(num_predicates, dtype=np.float64)
        predicate_ids = np.empty(num_predicates, dtype=np.int64)
        for slot, predicate in enumerate(query.predicates):
            key = f"{predicate.table}.{predicate.column}"
            try:
                column_id = self._column_index[key]
            except KeyError:
                raise KeyError(
                    f"column {key!r} is not a predicable (non-key) column"
                ) from None
            operator_id = self._operator_index[predicate.operator.value]
            literal = float(predicate.value)
            column_ids[slot] = column_id
            operator_ids[slot] = operator_id
            literal_values[slot] = literal
            predicate_ids[slot] = self._predicate_ids.setdefault(
                (column_id, operator_id, literal), len(self._predicate_ids)
            )
        return _CompiledQuery(
            query,
            table_ids,
            probe_ids,
            join_ids,
            column_ids,
            operator_ids,
            literal_values,
            predicate_ids,
        )

    def _probe_id(self, table: str, predicates: tuple) -> int:
        key = MaterializedSamples.probe_signature(table, predicates)
        probe_id = self._probe_ids.get(key)
        if probe_id is not None:
            # A new query reusing an already-resolved probe: served from the
            # probe matrix, credited as a bitmap-cache hit (see above).
            self._samples.record_bitmap_reuse(1)
            return probe_id
        bitmap = self._samples.bitmap(table, predicates)
        probe_id = self._num_probes
        if probe_id >= self._probe_matrix.shape[0]:
            capacity = max(64, 2 * self._probe_matrix.shape[0], probe_id + 1)
            grown = np.zeros((capacity, self._probe_matrix.shape[1]), dtype=bool)
            grown[: self._probe_matrix.shape[0]] = self._probe_matrix
            self._probe_matrix = grown
        self._probe_matrix[probe_id] = bitmap
        self._probe_ids[key] = probe_id
        self._num_probes += 1
        return probe_id

    # -- batch assembly -----------------------------------------------------
    def gather(self, queries: Sequence[Query]) -> _GatheredWorkload:
        """The deduplicated sets of a batch and their distinct elements' ids."""
        with self._lock:
            limit = 4 * self.max_cached_queries
            if self._num_probes >= limit or len(self._predicate_ids) >= limit:
                # Between batches, so no id handed out below goes stale
                # (rare: it takes a quarter-million distinct predicate sets
                # at the default cap).
                self._compiled.clear()
                self._probe_ids.clear()
                self._predicate_ids.clear()
                self._num_probes = 0
                self._flushes += 1
            compiled = [self._lookup(query) for query in queries]
            probe_ids = _concatenated(compiled, "probe_ids", np.int64)
            table_ids = _concatenated(compiled, "table_ids", np.int64)
            tables = _GatheredSet.of(
                _counts(compiled, "num_tables"),
                probe_ids if self._needs_samples else table_ids,
            )
            # Only the distinct probes' rows, read before another batch can
            # grow or flush the matrix.
            probe_bitmaps = (
                self._probe_matrix[probe_ids[tables.first]] if self._needs_samples else None
            )
        predicates = _GatheredSet.of(
            _counts(compiled, "num_predicates"),
            _concatenated(compiled, "predicate_ids", np.int64),
        )
        joins = _GatheredSet.of(
            _counts(compiled, "num_joins"), _concatenated(compiled, "join_ids", np.int64)
        )
        first = predicates.first
        return _GatheredWorkload(
            tables=tables,
            joins=joins,
            predicates=predicates,
            table_ids=table_ids[tables.first],
            join_ids=joins.element_ids[joins.first],
            column_ids=_concatenated(compiled, "column_ids", np.int64)[first],
            operator_ids=_concatenated(compiled, "operator_ids", np.int64)[first],
            literal_values=_concatenated(compiled, "literal_values", np.float64)[first],
            probe_bitmaps=probe_bitmaps,
        )

    # -- introspection -------------------------------------------------------
    @property
    def cache_hits(self) -> int:
        return self._compiled.hits - self._reordered

    @property
    def cache_misses(self) -> int:
        return self._compiled.misses + self._reordered

    @property
    def cache_evictions(self) -> int:
        return self._compiled.evictions

    @property
    def num_cached_queries(self) -> int:
        return len(self._compiled)

    @property
    def num_probes(self) -> int:
        """Distinct sample probes registered in the bitmap matrix."""
        return self._num_probes

    @property
    def num_predicates(self) -> int:
        """Distinct (column, operator, literal) predicates registered."""
        return len(self._predicate_ids)


def _counts(compiled: list[_CompiledQuery], attribute: str) -> np.ndarray:
    """Per-query set sizes of a compiled batch."""
    return np.fromiter(
        (getattr(entry, attribute) for entry in compiled), dtype=np.int64, count=len(compiled)
    )


def _concatenated(compiled: list[_CompiledQuery], attribute: str, dtype) -> np.ndarray:
    """One id array of a compiled batch, concatenated in query order."""
    if not compiled:
        return np.empty(0, dtype=dtype)
    return np.concatenate([getattr(entry, attribute) for entry in compiled])


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
        self._plan: CompiledFeaturizerPlan | None = None
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
    def plan(self) -> CompiledFeaturizerPlan:
        """The (lazily built) compiled featurizer plan of this encoding."""
        if self._plan is None:
            self._plan = CompiledFeaturizerPlan(self)
        return self._plan

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
        compiled plan's element ids decide which elements are equal, so
        sub-plans that share tables, joins and predicates build (and the
        model projects) each shared element once; only the distinct
        probes' bitmap rows are gathered.  Literals are min/max-normalized
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

        gathered = self.plan().gather(queries)
        encoding = self.encoding

        # Tables.
        table_features = np.zeros(
            (gathered.table_ids.shape[0], self.table_feature_width), dtype=self.dtype
        )
        table_features[:, : encoding.num_tables] = self._table_eye[gathered.table_ids]
        bitmaps = gathered.probe_bitmaps
        if self.variant is FeaturizationVariant.NUM_SAMPLES:
            table_features[:, encoding.num_tables] = (
                bitmaps.sum(axis=1) / self.samples.sample_size
            )
        elif self.variant is FeaturizationVariant.BITMAPS:
            table_features[:, encoding.num_tables :] = bitmaps

        # Joins (a plain gather: join rows are complete lookup-table rows).
        join_features = np.zeros(
            (gathered.join_ids.shape[0], self.join_feature_width), dtype=self.dtype
        )
        if gathered.join_ids.size:
            np.take(self._join_rows, gathered.join_ids, axis=0, out=join_features)

        # Predicates.
        num_predicates = gathered.column_ids.shape[0]
        predicate_features = np.zeros(
            (num_predicates, self.predicate_feature_width), dtype=self.dtype
        )
        if num_predicates:
            rows = np.arange(num_predicates)
            predicate_features[rows, gathered.column_ids] = 1.0
            predicate_features[rows, encoding.num_columns + gathered.operator_ids] = 1.0
            predicate_features[:, -1] = self._normalized_literals(
                gathered.column_ids, gathered.literal_values
            )

        def ragged(features: np.ndarray, gathered_set) -> RaggedSet:
            return RaggedSet(
                features, offsets_from_lengths(gathered_set.counts), gathered_set.rows
            )

        return RaggedDataset(
            tables=ragged(table_features, gathered.tables),
            joins=ragged(join_features, gathered.joins),
            predicates=ragged(predicate_features, gathered.predicates),
            labels=labels,
            cardinalities=cardinalities,
        )

    def _normalized_literals(
        self, column_ids: np.ndarray, values: np.ndarray
    ) -> np.ndarray:
        """Vectorized literal normalization (always in float64, see module doc)."""
        normalized = (values - self._column_min[column_ids]) / self._column_span[column_ids]
        normalized = np.clip(normalized, 0.0, 1.0)
        normalized[self._column_degenerate[column_ids]] = 0.0
        return normalized
