"""Per-column statistics: histograms, most-common values, distinct counts.

These are the ingredients of the PostgreSQL-style baseline estimator
(``ANALYZE``-style statistics): an equi-depth histogram, a most-common-value
(MCV) list with frequencies, the number of distinct values and min/max
bounds.  They are also reused by the sampling estimators' fallback path
("use the number of distinct values of the column with the most selective
conjunct", paper Section 4).

Statistics can be computed either exactly over the full column or — like
PostgreSQL's ``ANALYZE`` — from a bounded row sample, in which case the
number of distinct values is *estimated* with the Duj1 (Haas & Stokes)
estimator PostgreSQL uses.  The sampled mode is what the PostgreSQL baseline
runs with, because mis-estimated distinct counts on skewed columns are one of
the characteristic error sources of real systems.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.db.predicates import Operator
from repro.db.query import Predicate
from repro.db.table import Database, Table
from repro.utils.rng import spawn_rng

__all__ = ["ColumnStatistics", "TableStatistics", "DatabaseStatistics", "estimate_num_distinct"]

_DEFAULT_HISTOGRAM_BUCKETS = 100
_DEFAULT_MCV_ENTRIES = 100


def estimate_num_distinct(sample_values: np.ndarray, table_rows: int) -> int:
    """PostgreSQL's Duj1 (Haas & Stokes) distinct-count estimator.

    ``d_est = n * d / (n - f1 + f1 * n / N)`` where ``n`` is the sample size,
    ``N`` the table size, ``d`` the number of distinct values in the sample
    and ``f1`` the number of values occurring exactly once in the sample.
    When every sampled value is a duplicate of another (``f1 = 0``) the sample
    is assumed to have seen all distinct values.
    """
    sample_values = np.asarray(sample_values)
    n = sample_values.size
    if n == 0:
        return 0
    if n >= table_rows:
        return int(len(np.unique(sample_values)))
    _, counts = np.unique(sample_values, return_counts=True)
    d = len(counts)
    f1 = int((counts == 1).sum())
    if f1 == 0:
        return d
    if f1 == n:
        # Every sampled value unique: extrapolate linearly (PostgreSQL caps
        # the estimate at the table size).
        return min(int(round(d * table_rows / n)), table_rows)
    estimate = n * d / (n - f1 + f1 * n / table_rows)
    return int(np.clip(round(estimate), d, table_rows))


@dataclass(frozen=True)
class ColumnStatistics:
    """Summary statistics of one integer column."""

    table: str
    column: str
    row_count: int
    num_distinct: int
    minimum: int
    maximum: int
    mcv_values: np.ndarray = field(repr=False)
    mcv_fractions: np.ndarray = field(repr=False)
    histogram_bounds: np.ndarray = field(repr=False)

    @classmethod
    def from_values(
        cls,
        table: str,
        column: str,
        values: np.ndarray,
        num_buckets: int = _DEFAULT_HISTOGRAM_BUCKETS,
        num_mcvs: int = _DEFAULT_MCV_ENTRIES,
        sample_rows: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "ColumnStatistics":
        """Build statistics from the full column or from an ANALYZE-style sample.

        When ``sample_rows`` is given and smaller than the column, MCVs,
        histogram bounds and the distinct count are computed from a uniform
        sample of that many rows (distinct counts via the Duj1 estimator);
        the row count always reflects the full table.
        """
        values = np.asarray(values)
        if values.size == 0:
            return cls(
                table=table,
                column=column,
                row_count=0,
                num_distinct=0,
                minimum=0,
                maximum=0,
                mcv_values=np.empty(0, dtype=np.int64),
                mcv_fractions=np.empty(0, dtype=np.float64),
                histogram_bounds=np.empty(0, dtype=np.float64),
            )
        row_count = int(values.size)
        if sample_rows is not None and sample_rows < values.size:
            rng = rng if rng is not None else np.random.default_rng(0)
            observed = values[rng.choice(values.size, size=sample_rows, replace=False)]
            num_distinct = estimate_num_distinct(observed, row_count)
        else:
            observed = values
            num_distinct = int(len(np.unique(observed)))
        unique_values, counts = np.unique(observed, return_counts=True)
        top = np.argsort(counts)[::-1][:num_mcvs]
        quantiles = np.linspace(0.0, 1.0, num_buckets + 1)
        return cls(
            table=table,
            column=column,
            row_count=row_count,
            num_distinct=num_distinct,
            minimum=int(values.min()),
            maximum=int(values.max()),
            mcv_values=unique_values[top].astype(np.int64),
            mcv_fractions=(counts[top] / observed.size).astype(np.float64),
            histogram_bounds=np.quantile(observed, quantiles).astype(np.float64),
        )

    # ------------------------------------------------------------------
    def equality_selectivity(self, value: int) -> float:
        """Estimated fraction of rows equal to ``value``.

        Uses the MCV list when the value is a most-common value, otherwise
        distributes the remaining frequency mass uniformly over the remaining
        distinct values (PostgreSQL's ``eqsel`` logic).
        """
        if self.row_count == 0 or self.num_distinct == 0:
            return 0.0
        matches = np.flatnonzero(self.mcv_values == value)
        if matches.size:
            return float(self.mcv_fractions[matches[0]])
        mcv_mass = float(self.mcv_fractions.sum())
        remaining_distinct = self.num_distinct - len(self.mcv_values)
        if remaining_distinct <= 0:
            # All distinct values are in the MCV list and this one is not,
            # so the value does not occur.
            return 0.0
        return max((1.0 - mcv_mass) / remaining_distinct, 1.0 / self.row_count * 0.0)

    def range_selectivity(self, operator: Operator, value: int) -> float:
        """Estimated fraction of rows satisfying ``column < value`` / ``> value``."""
        if self.row_count == 0:
            return 0.0
        if operator is Operator.LT:
            fraction_below = self._fraction_below(value)
            return float(np.clip(fraction_below, 0.0, 1.0))
        if operator is Operator.GT:
            fraction_below_or_equal = self._fraction_below(value) + self.equality_selectivity(value)
            return float(np.clip(1.0 - fraction_below_or_equal, 0.0, 1.0))
        raise ValueError(f"range_selectivity does not handle {operator!r}")

    def _fraction_below(self, value: int) -> float:
        """Fraction of rows strictly below ``value`` from the equi-depth histogram."""
        bounds = self.histogram_bounds
        if bounds.size == 0:
            return 0.0
        if value <= bounds[0]:
            return 0.0
        if value > bounds[-1]:
            return 1.0
        position = np.searchsorted(bounds, value, side="left")
        bucket_fraction = 1.0 / (bounds.size - 1)
        lower = bounds[position - 1]
        upper = bounds[position]
        if upper > lower:
            within = (value - lower) / (upper - lower)
        else:
            within = 0.0
        return (position - 1) * bucket_fraction + within * bucket_fraction

    def selectivity(self, operator: Operator, value: int) -> float:
        """Selectivity of ``column op value`` under this column's statistics."""
        if operator is Operator.EQ:
            return self.equality_selectivity(value)
        return self.range_selectivity(operator, value)


@dataclass(frozen=True)
class TableStatistics:
    """Statistics for one table: row count and per-column summaries."""

    table: str
    row_count: int
    columns: dict[str, ColumnStatistics]

    @classmethod
    def from_table(
        cls,
        table: Table,
        num_buckets: int = _DEFAULT_HISTOGRAM_BUCKETS,
        sample_rows: int | None = None,
        rng: np.random.Generator | None = None,
    ) -> "TableStatistics":
        """Statistics for every column (sampled ones draw from ``rng`` in column order)."""
        columns = {
            name: ColumnStatistics.from_values(
                table.name,
                name,
                table.column(name),
                num_buckets=num_buckets,
                sample_rows=sample_rows,
                rng=rng,
            )
            for name in table.schema.column_names
        }
        return cls(table=table.name, row_count=table.num_rows, columns=columns)

    def column(self, name: str) -> ColumnStatistics:
        try:
            return self.columns[name]
        except KeyError:
            raise KeyError(f"no statistics for column {self.table}.{name}") from None


class DatabaseStatistics:
    """ANALYZE-style statistics for every table of a database.

    ``sample_rows=None`` computes exact statistics; a positive value mimics
    PostgreSQL's bounded ANALYZE sample (default statistics target 100 →
    30,000 sampled rows per table).
    """

    def __init__(
        self,
        database: Database,
        num_buckets: int = _DEFAULT_HISTOGRAM_BUCKETS,
        sample_rows: int | None = None,
        seed: int = 0,
    ):
        self.database = database
        self.sample_rows = sample_rows
        rng = spawn_rng(seed, "analyze") if sample_rows is not None else None
        self._tables = {
            name: TableStatistics.from_table(
                database.table(name),
                num_buckets=num_buckets,
                sample_rows=sample_rows,
                rng=rng,
            )
            for name in database.table_names
        }

    def table(self, name: str) -> TableStatistics:
        try:
            return self._tables[name]
        except KeyError:
            raise KeyError(f"no statistics for table {name!r}") from None

    def column(self, table: str, column: str) -> ColumnStatistics:
        return self.table(table).column(column)

    def predicate_selectivity(self, predicate: Predicate) -> float:
        """Selectivity of a single predicate under the column's statistics."""
        return self.column(predicate.table, predicate.column).selectivity(
            predicate.operator, predicate.value
        )

    def conjunction_selectivity(self, predicates: list[Predicate]) -> float:
        """Independence-assumption selectivity of a conjunction of predicates."""
        selectivity = 1.0
        for predicate in predicates:
            selectivity *= self.predicate_selectivity(predicate)
        return selectivity
