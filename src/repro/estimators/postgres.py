"""A PostgreSQL-style cardinality estimator.

This baseline mirrors what ``ANALYZE``-based systems do:

* per-column statistics (MCV lists, equi-depth histograms, distinct counts),
* the attribute-value-independence assumption across predicates of one table
  (selectivities are multiplied),
* equi-join selectivity ``1 / max(nd(a), nd(b))`` over the joined key columns
  (PostgreSQL's ``eqjoinsel`` without cross-MCV matching),
* a final clamp to at least one tuple.

Because it multiplies independent per-column selectivities, it systematically
mis-estimates queries whose predicates are correlated — exactly the behaviour
Figure 3 and Table 2 of the paper show for PostgreSQL.
"""

from __future__ import annotations

from typing import Sequence

from repro.db.query import Predicate
from repro.db.statistics import DatabaseStatistics
from repro.db.table import Database
from repro.estimators.base import ProductFormEstimator

__all__ = ["PostgresEstimator"]


class PostgresEstimator(ProductFormEstimator):
    """Histogram + independence assumption estimator (PostgreSQL stand-in).

    By default the statistics are computed from a bounded ANALYZE-style row
    sample rather than the full table, like real PostgreSQL: distinct counts
    are then Duj1 estimates and MCV/histogram entries reflect the sample.
    ``analyze_sample_rows`` is chosen so the statistics-to-data ratio is in
    the same regime as PostgreSQL's default (300 × statistics-target rows
    against multi-million-row IMDb tables); pass ``statistics`` explicitly to
    use exact statistics instead.
    """

    name = "PostgreSQL"

    def __init__(
        self,
        database: Database,
        statistics: DatabaseStatistics | None = None,
        analyze_sample_rows: int = 3000,
    ):
        self.database = database
        self.statistics = (
            statistics
            if statistics is not None
            else DatabaseStatistics(database, sample_rows=analyze_sample_rows)
        )

    def _base_estimate(self, table: str, predicates: Sequence[Predicate]) -> float:
        table_statistics = self.statistics.table(table)
        selectivity = self.statistics.conjunction_selectivity(list(predicates))
        return max(table_statistics.row_count * selectivity, 1.0)
