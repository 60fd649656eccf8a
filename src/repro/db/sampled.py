"""Sampled ground truth: approximate COUNT(*) labels with confidence bounds.

The paper labels training queries with exact cardinalities from HyPer; at the
``scale="large"`` tier (millions of fact rows) exact execution of every
candidate query is the dominant cost of workload generation.  This module
trades exactness for a fixed per-table budget: each table is reduced to a
uniform row sample of at most ``sample_rows`` rows, queries are executed
exactly *on the sampled database*, and the observed joined-tuple count is
multiplicity-corrected by the inverse inclusion probability of a joined
tuple — the product of the participating tables' sampling fractions.

For a query over tables :math:`T_1..T_k` with sampling fractions
:math:`f_1..f_k`, every tuple of the true join result survives into the
sampled join independently-ish with probability :math:`p = \\prod_i f_i`
(exactly, for PK/FK joins, because a result tuple survives iff each of its
``k`` distinct constituent rows was sampled, and rows are sampled per table
without replacement — uniform inclusion probability :math:`f_i` each).  The
observed count ``K`` is therefore binomial-like with mean :math:`N p`, giving
the unbiased estimate :math:`\\hat N = K / p` and an Agresti-Coull-style
normal-approximation interval on ``K`` that maps to bounds on ``N``.  Tables
smaller than the budget are fully sampled (:math:`f_i = 1`) and contribute no
uncertainty; when every table fits, the result is exact.

The sampled database reuses :class:`~repro.db.executor.CardinalityExecutor`,
so sampled labeling inherits the exact engine's counting paths rather than
duplicating them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.db.executor import CardinalityExecutor
from repro.db.query import Query
from repro.db.table import Database, Table
from repro.utils.rng import spawn_rng

__all__ = ["SampledCardinality", "SampledCardinalityExecutor", "normal_quantile"]


def normal_quantile(probability: float) -> float:
    """Inverse standard-normal CDF (Acklam's rational approximation).

    Accurate to ~1e-9 over (0, 1); scipy is deliberately not a dependency.
    """
    if not 0.0 < probability < 1.0:
        raise ValueError("probability must lie strictly between 0 and 1")
    # Coefficients of Peter Acklam's approximation.
    a = (-3.969683028665376e01, 2.209460984245205e02, -2.759285104469687e02,
         1.383577518672690e02, -3.066479806614716e01, 2.506628277459239e00)
    b = (-5.447609879822406e01, 1.615858368580409e02, -1.556989798598866e02,
         6.680131188771972e01, -1.328068155288572e01)
    c = (-7.784894002430293e-03, -3.223964580411365e-01, -2.400758277161838e00,
         -2.549732539343734e00, 4.374664141464968e00, 2.938163982698783e00)
    d = (7.784695709041462e-03, 3.224671290700398e-01, 2.445134137142996e00,
         3.754408661907416e00)
    p_low, p_high = 0.02425, 1.0 - 0.02425
    p = probability
    if p < p_low:
        q = math.sqrt(-2.0 * math.log(p))
        return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    if p > p_high:
        q = math.sqrt(-2.0 * math.log(1.0 - p))
        return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q + c[5]) / (
            (((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1.0
        )
    q = p - 0.5
    r = q * q
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r + a[5]) * q / (
        ((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1.0
    )


@dataclass(frozen=True)
class SampledCardinality:
    """A sampled COUNT(*) label: point estimate plus a confidence interval.

    ``observed`` joined tuples were counted among the samples; each
    represents ``1 / inclusion_probability`` true tuples.  ``exact`` marks
    queries whose tables were all fully sampled — the estimate is then the
    true cardinality and the interval collapses onto it.  The lower bound is
    never below ``observed`` (every observed joined tuple is a real result
    tuple), the upper bound never below the estimate.
    """

    estimate: float
    lower: float
    upper: float
    observed: int
    inclusion_probability: float
    confidence: float
    exact: bool

    @property
    def label(self) -> int:
        """The integer training label (rounded point estimate)."""
        return int(round(self.estimate))

    def covers(self, cardinality: float) -> bool:
        """Whether ``cardinality`` lies inside the confidence interval."""
        return self.lower <= cardinality <= self.upper


class SampledCardinalityExecutor:
    """Labels queries from bounded per-table row samples.

    Parameters
    ----------
    database:
        The full database snapshot.
    sample_rows:
        Per-table row budget.  Tables at or below the budget are kept whole
        (their sampling fraction is 1 and they add no estimation variance).
    seed:
        Seed of the sampling RNG (one derived stream per table).
    confidence:
        Two-sided confidence level of the reported interval.
    """

    def __init__(
        self,
        database: Database,
        sample_rows: int = 100_000,
        seed: int = 0,
        confidence: float = 0.95,
    ):
        if sample_rows <= 0:
            raise ValueError("sample_rows must be positive")
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must lie strictly between 0 and 1")
        self.database = database
        self.sample_rows = int(sample_rows)
        self.confidence = confidence
        self.seed = seed
        self._z = normal_quantile(0.5 + confidence / 2.0)
        self._fractions: dict[str, float] = {}
        sampled_tables: dict[str, Table] = {}
        for name in database.table_names:
            table = database.table(name)
            if table.num_rows <= self.sample_rows:
                self._fractions[name] = 1.0
                sampled_tables[name] = table
                continue
            rng = spawn_rng(seed, f"sampled-truth:{name}")
            rows = np.sort(
                rng.choice(table.num_rows, size=self.sample_rows, replace=False)
            ).astype(np.int64)
            self._fractions[name] = self.sample_rows / table.num_rows
            sampled_tables[name] = Table(
                table.schema,
                {
                    column: table.column(column)[rows]
                    for column in table.schema.column_names
                },
            )
        self._sampled_database = Database(database.schema, sampled_tables)
        self._executor = CardinalityExecutor(self._sampled_database)

    # ------------------------------------------------------------------
    def sampling_fraction(self, table: str) -> float:
        """The fraction of ``table``'s rows present in the sample."""
        try:
            return self._fractions[table]
        except KeyError:
            raise KeyError(f"no sample for table {table!r}") from None

    def inclusion_probability(self, query: Query) -> float:
        """Probability that a true result tuple survives into the sampled join."""
        probability = 1.0
        for table in query.tables:
            probability *= self.sampling_fraction(table)
        return probability

    @property
    def sampled_database(self) -> Database:
        """The reduced snapshot the sampled executor runs on."""
        return self._sampled_database

    def sample_bytes(self) -> int:
        """Bytes of column storage held by the sampled snapshot."""
        return self._sampled_database.memory_bytes()

    # ------------------------------------------------------------------
    def execute(self, query: Query) -> SampledCardinality:
        """Sampled cardinality of ``query`` with confidence bounds."""
        observed = self._executor.execute(query)
        probability = self.inclusion_probability(query)
        if probability >= 1.0:
            exact = float(observed)
            return SampledCardinality(
                estimate=exact,
                lower=exact,
                upper=exact,
                observed=observed,
                inclusion_probability=1.0,
                confidence=self.confidence,
                exact=True,
            )
        estimate = observed / probability
        # Wilson-style inversion of the binomial model: the plausible true
        # counts N are those with |K - N p| <= z * sqrt(N p (1 - p)), i.e.
        # the roots of  p^2 N^2 - (2 K p + z^2 p (1-p)) N + K^2 = 0.  Unlike
        # the plug-in normal interval this keeps a usable width at small
        # (including zero) observed counts and never dips below zero.
        z = self._z
        spread = z * z * probability * (1.0 - probability)
        mid = 2.0 * observed * probability + spread
        discriminant = math.sqrt(max(mid * mid - 4.0 * (probability * observed) ** 2, 0.0))
        lower = (mid - discriminant) / (2.0 * probability * probability)
        upper = (mid + discriminant) / (2.0 * probability * probability)
        # Every observed joined tuple is a real result tuple, so N >= K.
        lower = max(lower, float(observed)) if observed else 0.0
        upper = max(upper, estimate)
        return SampledCardinality(
            estimate=estimate,
            lower=lower,
            upper=upper,
            observed=observed,
            inclusion_probability=probability,
            confidence=self.confidence,
            exact=False,
        )

    def label(self, query: Query) -> int:
        """The integer training label (rounded multiplicity-corrected count)."""
        return self.execute(query).label
