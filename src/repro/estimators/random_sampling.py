"""Random Sampling (RS) baseline.

As described in Section 4 of the paper: RS evaluates base-table predicates on
materialized per-table samples to estimate base-table cardinalities and
assumes independence when estimating joins.  When no sample tuple qualifies
for a conjunctive predicate (the 0-tuple situation), it tries to evaluate the
conjuncts individually and multiplies their selectivities; if even a single
conjunct has no qualifying samples it falls back to ``1 / num_distinct`` of
the column with the most selective conjunct — an "educated guess".
"""

from __future__ import annotations

from typing import Sequence

from repro.db.query import Predicate
from repro.db.sampling import MaterializedSamples
from repro.db.statistics import DatabaseStatistics
from repro.db.table import Database
from repro.estimators.base import ProductFormEstimator

__all__ = ["RandomSamplingEstimator"]


class RandomSamplingEstimator(ProductFormEstimator):
    """Per-table sampling with independence across joins.

    Each unique ``(table, predicate set)`` of a batch probes the materialized
    sample once (:meth:`ProductFormEstimator.estimate_many`); that probe loop
    is the hot path under sub-plan fan-out.
    """

    name = "Random Sampling"

    def __init__(
        self,
        database: Database,
        samples: MaterializedSamples,
        statistics: DatabaseStatistics | None = None,
    ):
        self.database = database
        self.samples = samples
        # Distinct counts are needed for the educated-guess fallback and for
        # PK/FK join selectivities; they are catalog-level statistics every
        # system maintains.
        self.statistics = statistics if statistics is not None else DatabaseStatistics(database)

    def base_table_selectivity(self, table: str, predicates: list[Predicate]) -> float:
        """Estimated selectivity of a conjunction on one base table."""
        if not predicates:
            return 1.0
        sample = self.samples.sample(table)
        if sample.num_sampled == 0:
            return self._fallback_selectivity(table, predicates)
        qualifying = self.samples.qualifying_count(table, predicates)
        if qualifying > 0:
            return qualifying / sample.num_sampled
        return self._fallback_selectivity(table, predicates)

    def _fallback_selectivity(self, table: str, predicates: list[Predicate]) -> float:
        """The paper's fallback for 0-tuple situations.

        Evaluate each conjunct individually on the sample and multiply the
        selectivities; a conjunct with no qualifying samples contributes
        ``1 / num_distinct`` of its column (and that column is by construction
        the most selective conjunct).
        """
        sample = self.samples.sample(table)
        selectivity = 1.0
        for predicate in predicates:
            if sample.num_sampled > 0:
                qualifying = self.samples.qualifying_count(table, [predicate])
            else:
                qualifying = 0
            if qualifying > 0:
                selectivity *= qualifying / sample.num_sampled
            else:
                distinct = max(
                    self.statistics.column(table, predicate.column).num_distinct, 1
                )
                selectivity *= 1.0 / distinct
        return selectivity

    def _base_estimate(self, table: str, predicates: Sequence[Predicate]) -> float:
        rows = self.database.table(table).num_rows
        return max(rows * self.base_table_selectivity(table, list(predicates)), 1.0)
