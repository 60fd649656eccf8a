"""Oracle estimator returning exact cardinalities: the truth side of
plan-quality evaluation, executed serially with LRU result and scan memos and
one counting pass per sub-plan fan-out."""

from __future__ import annotations

from repro.db.executor import CardinalityExecutor
from repro.db.query import Query
from repro.db.table import Database
from repro.estimators.base import CardinalityEstimator, subplan_map

__all__ = ["TrueCardinalityEstimator"]


class TrueCardinalityEstimator(CardinalityEstimator):
    """Returns the true cardinality by executing the query.

    Its q-error is exactly 1 on every query, which makes it useful as a
    reference point in tests of the evaluation harness — and it is the
    *truth side* of plan-quality evaluation, where every connected sub-plan
    of every query must be executed.  Results are therefore memoized in a
    signature-keyed bounded LRU by default: plan enumeration re-asks for
    shared sub-plans constantly, and repeated scenario runs over one
    database snapshot re-execute nothing.  Pass ``cache_capacity=None`` to
    execute every call.

    :meth:`estimate_subplans` counts a query's whole fan-out in one pass of
    the executor's counting core (:meth:`CardinalityExecutor.execute_subplans`):
    each base table is scanned once and each join edge's message is folded
    once for every sub-plan that shares it.  Only the sub-plans the result
    memo does not hold are counted, and the memo sees the same lookups as
    :meth:`estimate_many` over the sub-plans, so its hits, misses and
    contents are those of the base-class path.

    A second, coarser reuse layer sits below the result memo: the executor's
    per-(table, predicate-set) scan memo (``scan_cache_capacity``), which
    serves :meth:`estimate` calls on sub-plans of one query, and queries that
    filter a table identically, from one scan.
    """

    name = "True cardinality"

    def __init__(
        self,
        database: Database,
        cache_capacity: int | None = 65536,
        scan_cache_capacity: int | None = 256,
    ):
        self._executor = CardinalityExecutor(
            database,
            cache_capacity=cache_capacity,
            scan_cache_capacity=scan_cache_capacity,
        )

    @property
    def cache_hits(self) -> int:
        """Executions avoided by the signature-keyed memo."""
        return self._executor.cache_hits

    @property
    def cache_misses(self) -> int:
        return self._executor.cache_misses

    @property
    def scan_reuse_hits(self) -> int:
        """Base-table scans served from the per-predicate-set scan memo."""
        return self._executor.scan_reuse_hits

    @property
    def scan_reuse_misses(self) -> int:
        return self._executor.scan_reuse_misses

    def estimate(self, query: Query) -> float:
        return float(max(self._executor.execute(query), 1))

    def estimate_subplans(self, query: Query) -> dict[frozenset[str], float]:
        """Every connected sub-plan's true cardinality (clamped to 1), counted
        in one fan-out pass; values equal :meth:`estimate` on each sub-plan."""
        counts = self._executor.execute_subplans(query)
        return subplan_map(query, [max(count, 1) for count in counts])
