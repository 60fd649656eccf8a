"""Mini-batch construction over the ragged (CSR-style) layout.

Section 3.2 of the paper pads every query's sets to the largest set in the
mini-batch and masks the dummy elements out of the average.  This
reproduction stores the same sets without any padding:
:class:`RaggedDataset` keeps, per set, only the real elements, with
per-query CSR offsets.  An element that repeats across the batch's queries
(the sub-plans of one query share most of their tables, joins and
predicates) is stored once: a set holds ``(distinct_elements, width)``
feature rows plus ``rows``, each element's index into them.  The
per-element MLPs then touch each distinct row once, and the masked average
becomes a segment mean over the offsets, gathered through ``rows``.  Empty
sets (a query without joins or predicates) are zero-length segments that
pool to a zero vector.

:func:`iterate_ragged_minibatches` orders each epoch's shuffled queries into
length-homogeneous buckets before batching, so gathered training batches have
near-uniform row counts per set (better matmul shapes, no pathological
mixed-size batches) while batch order stays shuffled.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.featurization import first_seen

__all__ = [
    "RaggedSet",
    "RaggedDataset",
    "iterate_ragged_minibatches",
    "offsets_from_lengths",
]


def _column_vector(values: np.ndarray, expected: int, name: str) -> np.ndarray:
    """Validate per-query scalars and reshape them to a ``(n, 1)`` column."""
    values = np.asarray(values, dtype=np.float64).reshape(-1, 1)
    if values.shape[0] != expected:
        raise ValueError(f"{name} length does not match batch size")
    return values


def offsets_from_lengths(lengths) -> np.ndarray:
    """CSR row boundaries (``n + 1`` int64 offsets) from per-segment lengths."""
    lengths = np.asarray(lengths)
    offsets = np.zeros(lengths.shape[0] + 1, dtype=np.int64)
    np.cumsum(lengths, out=offsets[1:])
    return offsets


@dataclass(frozen=True)
class RaggedSet:
    """One variable-sized set over a workload, stored without padding.

    ``features`` holds one row per *distinct* element, shape
    ``(distinct_elements, feature_width)``; ``rows`` lists, for every real
    element of every query's set in query order, the index of its feature
    row, and ``offsets`` holds the ``num_queries + 1`` CSR boundaries into
    ``rows`` (query ``i`` owns elements ``offsets[i]:offsets[i + 1]``).  So
    element ``e``'s feature vector is ``features[rows[e]]``, and an element
    repeated across a batch's queries is stored — and projected by the
    model — once.  ``lengths`` and the reciprocal counts used by mean
    pooling are derived once and cached.
    """

    features: np.ndarray
    offsets: np.ndarray
    rows: np.ndarray
    lengths: np.ndarray = field(init=False, repr=False)
    inv_counts: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise ValueError("offsets must be 1-D with at least one boundary")
        if self.features.ndim != 2:
            raise ValueError("ragged features must be 2-D (distinct_elements, width)")
        num_rows = self.features.shape[0]
        rows = np.ascontiguousarray(self.rows, dtype=np.int64)
        if rows.ndim != 1:
            raise ValueError("rows must be 1-D (one feature row per element)")
        if rows.size and (rows.min() < 0 or rows.max() >= num_rows):
            raise ValueError(f"rows must index the {num_rows} feature rows")
        if offsets[-1] != rows.shape[0]:
            raise ValueError(
                f"offsets cover {offsets[-1]} elements but rows has {rows.shape[0]}"
            )
        lengths = offsets[1:] - offsets[:-1]
        if (lengths < 0).any():
            raise ValueError("offsets must be non-decreasing")
        inv_counts = np.maximum(lengths, 1).astype(self.features.dtype)[:, None]
        np.reciprocal(inv_counts, out=inv_counts)
        object.__setattr__(self, "offsets", offsets)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "lengths", lengths)
        object.__setattr__(self, "inv_counts", inv_counts)

    @property
    def num_segments(self) -> int:
        return self.lengths.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def slice(self, start: int, stop: int) -> "RaggedSet":
        """A contiguous query range, keeping only the feature rows it uses.

        The whole range is ``self``; a partial one is compacted like
        :meth:`take`.
        """
        if start == 0 and stop == self.num_segments:
            return self
        offsets = self.offsets[start : stop + 1]
        base = offsets[0]
        return self._compact(self.rows[base : offsets[-1]], offsets - base)

    def take(self, indices: np.ndarray) -> "RaggedSet":
        """Gather an arbitrary selection of queries into a new ragged set.

        The result keeps only the feature rows its elements use, in
        first-seen order — the layout featurizing the selected queries as
        one batch gives — so a minibatch or chunk projects only its own
        distinct elements.
        """
        indices = np.asarray(indices)
        starts = self.offsets[:-1][indices]
        lengths = self.lengths[indices]
        offsets = offsets_from_lengths(lengths)
        total = int(offsets[-1])
        # Element gather: for output element r in segment j, the source
        # element is starts[j] + (r - offsets[j]).
        elements = np.repeat(starts - offsets[:-1], lengths) + np.arange(total)
        return self._compact(self.rows[elements], offsets)

    def _compact(self, rows: np.ndarray, offsets: np.ndarray) -> "RaggedSet":
        first, local = first_seen(rows.tolist())
        return RaggedSet(features=self.features[rows[first]], offsets=offsets, rows=local)


@dataclass(frozen=True)
class RaggedDataset:
    """A whole workload in the ragged layout (tables / joins / predicates).

    Doubles as the mini-batch type of the ragged compute paths: slicing or
    gathering a ``RaggedDataset`` yields another ``RaggedDataset``.
    """

    tables: RaggedSet
    joins: RaggedSet
    predicates: RaggedSet
    labels: np.ndarray | None = None
    cardinalities: np.ndarray | None = None

    def __post_init__(self) -> None:
        sizes = {
            self.tables.num_segments,
            self.joins.num_segments,
            self.predicates.num_segments,
        }
        if len(sizes) != 1:
            raise ValueError(f"set segment counts disagree: {sorted(sizes)}")
        for name in ("labels", "cardinalities"):
            values = getattr(self, name)
            if values is not None:
                object.__setattr__(self, name, _column_vector(values, self.size, name))

    @property
    def size(self) -> int:
        return self.tables.num_segments

    def __len__(self) -> int:
        return self.size

    def slice(self, start: int, stop: int) -> "RaggedDataset":
        """A contiguous query range (the whole range is ``self``'s sets)."""
        start, stop, _ = slice(start, stop).indices(self.size)
        return RaggedDataset(
            tables=self.tables.slice(start, stop),
            joins=self.joins.slice(start, stop),
            predicates=self.predicates.slice(start, stop),
            labels=self.labels[start:stop] if self.labels is not None else None,
            cardinalities=(
                self.cardinalities[start:stop] if self.cardinalities is not None else None
            ),
        )

    def take(
        self,
        indices: np.ndarray,
        labels: np.ndarray | None = None,
        cardinalities: np.ndarray | None = None,
    ) -> "RaggedDataset":
        """Gather an arbitrary selection of queries.

        ``labels``/``cardinalities`` override the stored columns; they must
        already be aligned with ``indices``.
        """
        indices = np.asarray(indices)
        if labels is None and self.labels is not None:
            labels = self.labels[indices]
        if cardinalities is None and self.cardinalities is not None:
            cardinalities = self.cardinalities[indices]
        return RaggedDataset(
            tables=self.tables.take(indices),
            joins=self.joins.take(indices),
            predicates=self.predicates.take(indices),
            labels=labels,
            cardinalities=cardinalities,
        )

    @property
    def total_elements(self) -> np.ndarray:
        """Per-query total set elements (used for length bucketing)."""
        return self.tables.lengths + self.joins.lengths + self.predicates.lengths


def iterate_ragged_minibatches(
    dataset: RaggedDataset,
    labels: np.ndarray,
    cardinalities: np.ndarray,
    batch_size: int,
    rng: np.random.Generator,
) -> Iterator[RaggedDataset]:
    """Yield mini-batches of a :class:`RaggedDataset` for one training epoch.

    Queries are first shuffled, then stably ordered by their total
    set-element count and chunked, and finally the chunk order is shuffled:
    batches are length-homogeneous (uniform gather and matmul shapes) while
    the epoch still visits batches — and ties within a bucket — in random
    order.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    count = dataset.size
    order = np.arange(count)
    rng.shuffle(order)
    order = order[np.argsort(dataset.total_elements[order], kind="stable")]
    labels = np.asarray(labels, dtype=np.float64)
    cardinalities = np.asarray(cardinalities, dtype=np.float64)
    starts = np.arange(0, count, batch_size)
    rng.shuffle(starts)
    for start in starts:
        indices = order[start : start + batch_size]
        yield dataset.take(
            indices,
            labels=labels[indices],
            cardinalities=cardinalities[indices],
        )
