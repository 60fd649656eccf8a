"""The estimator interface shared by MSCN and all baselines.

:class:`CardinalityEstimator` is the one way to ask for estimates: every
estimator answers :meth:`~CardinalityEstimator.estimate`,
:meth:`~CardinalityEstimator.estimate_many` and
:meth:`~CardinalityEstimator.estimate_subplans`.  The two product-form
baselines share :class:`ProductFormEstimator`.
"""

from __future__ import annotations

import abc
from typing import Sequence

import numpy as np

from repro.db.query import JoinCondition, Predicate, Query
from repro.db.statistics import DatabaseStatistics

__all__ = ["CardinalityEstimator", "ProductFormEstimator", "subplan_map"]


def subplan_map(query: Query, estimates: Sequence[float]) -> dict[frozenset[str], float]:
    """Assemble the sub-plan table-set → estimate mapping every
    ``estimate_subplans`` implementation returns (one shared shape, so the
    optimizer's consumers cannot drift apart).

    ``estimates`` is aligned with ``query.connected_subqueries()``.  The keys
    are the query's memoized ``connected_table_subsets()`` — no table set is
    rebuilt per call, and join enumeration, which walks the same objects,
    finds each one by identity.
    """
    return dict(zip(query.connected_table_subsets(), map(float, estimates)))


class CardinalityEstimator(abc.ABC):
    """Anything that can estimate COUNT(*) results for queries.

    Implementations must return strictly positive estimates (cardinality
    estimates of zero break the q-error metric and are never useful to an
    optimizer; the paper's competitors clamp to one tuple as well).
    """

    #: Human-readable name used in reports.
    name: str = "estimator"

    @abc.abstractmethod
    def estimate(self, query: Query) -> float:
        """Estimated result cardinality of ``query`` (>= 1)."""

    def estimate_many(self, queries: Sequence[Query]) -> np.ndarray:
        """Vectorized convenience wrapper around :meth:`estimate`.

        Accepts any sequence of queries (lists, tuples, workload slices), not
        just lists — the evaluation harness routes every workload through
        this method, so vectorized subclass overrides are used end-to-end.
        """
        return np.array([self.estimate(query) for query in queries], dtype=np.float64)

    def estimate_subplans(self, query: Query) -> dict[frozenset[str], float]:
        """Estimates for every connected sub-plan of ``query``, batched.

        A join-order optimizer never asks for one cardinality: it costs every
        connected subgraph of the query it is planning.  This method derives
        the sub-queries once (``Query.connected_subqueries``) and answers them
        through a single :meth:`estimate_many` call, so estimators with a
        vectorized batch path (MSCN's fused pass, the dedup-batched baselines)
        serve the whole fan-out in one shot.  Keys are sub-plan table sets;
        the full query's own estimate is included under ``frozenset(tables)``.
        """
        return subplan_map(query, self.estimate_many(query.connected_subqueries()))


class ProductFormEstimator(CardinalityEstimator):
    """``∏ base-table estimates × ∏ join selectivities`` (PostgreSQL-style, RS).

    Both classical baselines assume independence across tables and estimate
    an equi-join's selectivity as ``1 / max(nd(left), nd(right))`` over the
    catalog's distinct counts (``self.statistics``).  A subclass supplies only
    its filtered base-table estimate, :meth:`_base_estimate`.
    """

    statistics: DatabaseStatistics

    @abc.abstractmethod
    def _base_estimate(self, table: str, predicates: Sequence[Predicate]) -> float:
        """Estimated filtered cardinality of one base table (>= 1)."""

    def join_selectivity(self, join: JoinCondition) -> float:
        """Equi-join selectivity ``1 / max(nd(left), nd(right))``."""
        left = self.statistics.column(join.left_table, join.left_column)
        right = self.statistics.column(join.right_table, join.right_column)
        distinct = max(left.num_distinct, right.num_distinct, 1)
        return 1.0 / distinct

    def estimate(self, query: Query) -> float:
        estimate = 1.0
        for table in query.tables:
            estimate *= self._base_estimate(table, query.predicates_on(table))
        for join in query.joins:
            estimate *= self.join_selectivity(join)
        return max(estimate, 1.0)

    def estimate_many(self, queries: Sequence[Query]) -> np.ndarray:
        """Batched estimation with per-batch memoization.

        Under sub-plan fan-out the same ``(table, predicate set)`` pair recurs
        in up to ``2^(n-1)`` sub-plans of one query and every join edge recurs
        in half of them, so each unique base-table estimate (for RS, a sample
        probe) and join selectivity is computed **once** per batch and the
        per-query products are assembled from the memo — in :meth:`estimate`'s
        multiplication order, so results are bit-identical to it.
        """
        base_estimate = self._base_estimate
        join_selectivity = self.join_selectivity
        base_cache: dict[tuple, float] = {}
        join_cache: dict[str, float] = {}
        results = np.empty(len(queries), dtype=np.float64)
        for position, query in enumerate(queries):
            estimate = 1.0
            for table in query.tables:
                predicates = query.predicates_on(table)
                # The key keeps the predicates' presented order: selectivities
                # are multiplied in that order, so two permutations of one
                # predicate set may differ in the last ulp — sharing one factor
                # across them would break the bit-identity-with-estimate()
                # guarantee.  Fan-out traffic derives every sub-plan from one
                # parent query, so the order is consistent and dedup is
                # unaffected.
                key = (table, tuple(
                    (p.column, p.operator.value, p.value) for p in predicates
                ))
                factor = base_cache.get(key)
                if factor is None:
                    factor = base_estimate(table, predicates)
                    base_cache[key] = factor
                estimate *= factor
            for join in query.joins:
                canonical = join.canonical
                factor = join_cache.get(canonical)
                if factor is None:
                    factor = join_selectivity(join)
                    join_cache[canonical] = factor
                estimate *= factor
            results[position] = max(estimate, 1.0)
        return results
