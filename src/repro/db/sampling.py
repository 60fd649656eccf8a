"""Materialized base-table samples and qualifying-sample bitmaps.

Section 3.4 of the paper enriches each query with, per base table, either the
*number* of materialized sample tuples that satisfy the table's predicates or
a *bitmap* marking which sample positions qualify.  The same samples also
power the Random Sampling baseline and seed Index-Based Join Sampling.

Samples are drawn once per database snapshot (uniformly, without replacement)
and reused for training, inference and the baselines — mirroring the paper,
where MSCN and Random Sampling share the same random seed / sample set.

Bitmap probes are memoized: the database snapshot is immutable, so the bitmap
of a ``(table, predicate set)`` pair never changes.  Every probe goes through
one shared :class:`~repro.utils.lru.LRU`, keyed by an order-independent
predicate signature, so repeated predicate sets across a training workload
and across repeated serving calls are evaluated against the sample tuples
once while they stay cached.  It is the only bitmap memo: the featurizer
looks each table element up here, so ``max_cached_bitmaps`` bounds the
bitmaps held and the hit/miss counters count every probe.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from repro.db.predicates import Operator, evaluate_conjunction
from repro.db.query import Predicate
from repro.db.table import Database
from repro.utils.lru import LRU

__all__ = ["TableSample", "MaterializedSamples"]


@dataclass(frozen=True)
class TableSample:
    """A uniform sample of one table's rows.

    ``row_indices`` are positions into the base table; ``sample_size`` is the
    configured bitmap width (the number of slots), which may exceed the number
    of actually sampled rows for small tables — unused slots never qualify.
    """

    table: str
    row_indices: np.ndarray
    table_rows: int
    sample_size: int

    @property
    def num_sampled(self) -> int:
        return int(len(self.row_indices))

    @property
    def scale_factor(self) -> float:
        """Multiplier turning a qualifying-sample count into a cardinality."""
        if self.num_sampled == 0:
            return 0.0
        return self.table_rows / self.num_sampled


class MaterializedSamples:
    """Per-table materialized samples with bitmap evaluation.

    Parameters
    ----------
    database:
        The database snapshot to sample.
    sample_size:
        Number of sample slots per table (the paper uses 1000).
    seed:
        Seed of the sampling RNG.  The paper notes MSCN and Random Sampling
        share the same seed; reusing one ``MaterializedSamples`` instance for
        both reproduces that setup.
    """

    #: Default bound on the number of memoized bitmaps.  At the paper's
    #: sample_size of 1000 this caps the cache at ~64 MiB while comfortably
    #: holding the distinct probes of a 100k-query training workload.
    DEFAULT_MAX_CACHED_BITMAPS = 65536

    def __init__(
        self,
        database: Database,
        sample_size: int = 1000,
        seed: int = 0,
        max_cached_bitmaps: int = DEFAULT_MAX_CACHED_BITMAPS,
    ):
        if sample_size <= 0:
            raise ValueError("sample_size must be positive")
        self.database = database
        self.sample_size = int(sample_size)
        self.seed = seed
        self.max_cached_bitmaps = max_cached_bitmaps
        self._bitmap_cache = LRU(max_cached_bitmaps)
        rng = np.random.default_rng(seed)
        self._samples: dict[str, TableSample] = {}
        for name in database.table_names:
            table = database.table(name)
            population = table.num_rows
            take = min(self.sample_size, population)
            rows = rng.choice(population, size=take, replace=False) if take else np.array([], int)
            self._samples[name] = TableSample(
                table=name,
                row_indices=np.sort(rows.astype(np.int64)),
                table_rows=population,
                sample_size=self.sample_size,
            )

    @classmethod
    def from_row_indices(
        cls,
        database: Database,
        sample_size: int,
        row_indices: Mapping[str, np.ndarray],
        seed: int = 0,
    ) -> "MaterializedSamples":
        """Rebuild a sample set from previously recorded row indices.

        Used when a trained estimator is re-loaded: inference must see exactly
        the sample tuples it was trained with, not a fresh draw.
        """
        samples = cls(database, sample_size=sample_size, seed=seed)
        for name in database.table_names:
            if name not in row_indices:
                raise ValueError(f"missing recorded sample rows for table {name!r}")
            rows = np.sort(np.asarray(row_indices[name], dtype=np.int64))
            table = database.table(name)
            if rows.size and (rows.min() < 0 or rows.max() >= table.num_rows):
                raise ValueError(f"recorded sample rows out of range for table {name!r}")
            samples._samples[name] = TableSample(
                table=name,
                row_indices=rows,
                table_rows=table.num_rows,
                sample_size=sample_size,
            )
        # The constructor's fresh draw may differ from the recorded rows, so
        # any bitmaps probed against it would be stale.
        samples.clear_bitmap_cache()
        return samples

    def row_indices_by_table(self) -> dict[str, np.ndarray]:
        """The sampled row indices of every table (for persistence)."""
        return {name: sample.row_indices.copy() for name, sample in self._samples.items()}

    # ------------------------------------------------------------------
    def sample(self, table: str) -> TableSample:
        try:
            return self._samples[table]
        except KeyError:
            raise KeyError(f"no sample for table {table!r}") from None

    @staticmethod
    def probe_signature(table: str, predicates: Sequence[Predicate]) -> tuple:
        """Order-independent cache key of a ``(table, predicate set)`` probe.

        Predicates on other tables are ignored, mirroring :meth:`bitmap`.
        """
        return (
            table,
            tuple(
                sorted(
                    (p.column, p.operator.value, int(p.value))
                    for p in predicates
                    if p.table == table
                )
            ),
        )

    def _compute_bitmap(self, signature: tuple) -> np.ndarray:
        table, conditions = signature
        sample = self.sample(table)
        bitmap = np.zeros(self.sample_size, dtype=bool)
        if sample.num_sampled == 0:
            return bitmap
        triples = [(column, Operator(symbol), value) for column, symbol, value in conditions]
        qualifying = evaluate_conjunction(
            self.database.table(table), triples, rows=sample.row_indices
        )
        bitmap[: sample.num_sampled] = qualifying
        return bitmap

    def probe_bitmap(self, signature: tuple) -> np.ndarray:
        """The memoized bitmap of one :meth:`probe_signature` (read-only;
        callers must not mutate it).

        The cache is LRU-bounded by ``max_cached_bitmaps`` so long-running
        serving traffic with an unbounded tail of distinct predicate sets
        cannot grow it without limit.
        """
        bitmap = self._bitmap_cache.get(signature)
        if bitmap is None:
            bitmap = self._compute_bitmap(signature)
            bitmap.setflags(write=False)
            self._bitmap_cache.put(signature, bitmap)
        return bitmap

    def _cached_bitmap(self, table: str, predicates: Sequence[Predicate]) -> np.ndarray:
        return self.probe_bitmap(self.probe_signature(table, predicates))

    def bitmap(self, table: str, predicates: Sequence[Predicate]) -> np.ndarray:
        """Bitmap of qualifying sample positions for ``table`` under ``predicates``.

        The result always has length ``sample_size``; positions beyond the
        number of sampled rows are zero.  A table without predicates has all
        sampled positions set (every sampled tuple qualifies).
        """
        return self._cached_bitmap(table, predicates).copy()

    # -- cache introspection ------------------------------------------------
    @property
    def bitmap_cache_hits(self) -> int:
        """Number of probes served from the bitmap cache so far."""
        return self._bitmap_cache.hits

    @property
    def bitmap_cache_misses(self) -> int:
        """Number of probes that had to evaluate predicates on the samples."""
        return self._bitmap_cache.misses

    @property
    def bitmap_cache_size(self) -> int:
        """Number of distinct probe signatures currently cached."""
        return len(self._bitmap_cache)

    def clear_bitmap_cache(self) -> None:
        """Drop all memoized bitmaps and reset the hit/miss counters."""
        self._bitmap_cache = LRU(self.max_cached_bitmaps)

    def qualifying_count(self, table: str, predicates: Sequence[Predicate]) -> int:
        """Number of qualifying sample tuples (the paper's ``#samples`` feature)."""
        return int(self._cached_bitmap(table, predicates).sum())

    def qualifying_rows(self, table: str, predicates: Sequence[Predicate]) -> np.ndarray:
        """Base-table row indices of the qualifying sample tuples."""
        sample = self.sample(table)
        bitmap = self._cached_bitmap(table, predicates)
        return sample.row_indices[bitmap[: sample.num_sampled]]
