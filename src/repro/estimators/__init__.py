"""Baseline cardinality estimators used as competitors in the paper.

Every estimator in the repository, MSCN included, is a
:class:`~repro.estimators.base.CardinalityEstimator`: ``estimate``,
``estimate_many`` and ``estimate_subplans`` are the one way to ask for
estimates.

* :class:`~repro.estimators.base.ProductFormEstimator` — ``∏ base-table
  estimates × ∏ join selectivities``, written once for the two classical
  baselines below; each supplies only its base-table estimate.
* :class:`~repro.estimators.postgres.PostgresEstimator` — textbook
  histogram/MCV statistics with the attribute-value-independence assumption
  and ``1/max(nd)`` join selectivities (stand-in for PostgreSQL 10.3).
* :class:`~repro.estimators.random_sampling.RandomSamplingEstimator` — the
  paper's Random Sampling (RS): per-table materialized samples, independence
  for joins, with the conjunct-wise fallback for empty samples.
* :class:`~repro.estimators.ibjs.IndexBasedJoinSamplingEstimator` — the
  paper's strongest baseline (IBJS): qualifying base-table samples probed
  through PK/FK hash indexes, with the same fallback as RS.
* :class:`~repro.estimators.true.TrueCardinalityEstimator` — an oracle used
  in tests and sanity checks.
"""

from repro.estimators.base import CardinalityEstimator, ProductFormEstimator
from repro.estimators.ibjs import IndexBasedJoinSamplingEstimator
from repro.estimators.postgres import PostgresEstimator
from repro.estimators.random_sampling import RandomSamplingEstimator
from repro.estimators.true import TrueCardinalityEstimator

__all__ = [
    "CardinalityEstimator",
    "ProductFormEstimator",
    "PostgresEstimator",
    "RandomSamplingEstimator",
    "IndexBasedJoinSamplingEstimator",
    "TrueCardinalityEstimator",
]
