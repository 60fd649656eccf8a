"""True-cardinality execution.

The paper uses HyPer to label training queries with their true result sizes
(Section 4).  This module provides the same capability for the in-memory
engine: it evaluates base-table predicates and counts the result of the
PK/FK equi-join without materializing it.

For the tree-shaped join graphs produced by the workload generators (every
join adds one new table), counting follows a Yannakakis-style bottom-up
weight propagation: each qualifying row of a leaf has weight 1, a parent row's
weight is the product over child tables of the summed weights of matching
child rows, and the result cardinality is the sum of root weights.  This runs
in time linear in the table sizes rather than in the size of the join result.

Each join edge is counted over a dense key domain: a child's weights are
scatter-added into one float64 total per key (the keys are their own codes,
since every generator emits keys ``1..N``) and each parent row gathers its
factor from those totals by key — linear time, no sort and no search.  An
edge with negative keys, or keys spread far wider than its rows (huge ids,
row-sampled tables), first codes its keys by rank in the sorted union of
both columns' distinct values; that union is built once per executor.

The executor evaluates whole arrays: a predicate scan is one selection mask
over the table, and each edge folds all child rows in one ``np.bincount``
and gathers all parent factors in one indexing pass.  All weights are
integer-valued float64, so every sum is exact below 2**53.

Two :class:`~repro.utils.lru.LRU` memos sit in front of the counting:
``cache_capacity`` memoizes whole results by query signature, and
``scan_cache_capacity`` memoizes per-(table, predicate-set) qualifying rows.
The DPsize optimizer's sub-plan fan-out executes every connected sub-plan of
a query, and all of them filter the same base tables with the same predicate
conjunctions — the scan memo lets one base scan serve the whole enumeration
instead of being re-executed per sub-plan.

Cyclic join graphs (not produced by the generators, but accepted by the API)
fall back to iterative hash-join expansion.  A brute-force nested-loop
reference implementation is included for correctness testing on tiny inputs.
"""

from __future__ import annotations

import itertools
import threading
from collections import defaultdict

import numpy as np

from repro.db.predicates import selection_mask
from repro.db.query import Query
from repro.db.table import Database
from repro.utils.lru import LRU

__all__ = ["CardinalityExecutor", "nested_loop_cardinality"]


# Keys are their own domain codes when all are non-negative and the largest
# stays below this multiple of the edge's longer column; otherwise they are
# coded by rank in the edge's sorted distinct-value union.
_DENSE_SPAN_FACTOR = 4


class _JoinKeyDomain:
    """Codes both key columns of one join edge into ``[0, size)``.

    Every key of either column has a code, so neither the fold nor the apply
    needs a membership test: a parent key no child row carries reads total 0.
    """

    def __init__(self, left: np.ndarray, right: np.ndarray):
        low = min(left.min(initial=0), right.min(initial=0))
        high = max(left.max(initial=-1), right.max(initial=-1))
        if low >= 0 and high < _DENSE_SPAN_FACTOR * max(len(left), len(right)):
            self.union = None
            self.size = int(high) + 1
        else:
            self.union = np.union1d(left, right)
            self.size = len(self.union)

    def codes(self, keys: np.ndarray) -> np.ndarray:
        return keys if self.union is None else np.searchsorted(self.union, keys)

    def fold(self, keys: np.ndarray, weights: np.ndarray) -> np.ndarray:
        """Summed ``weights`` per key code (added in input order)."""
        return np.bincount(self.codes(keys), weights, minlength=self.size)

    def apply(self, weights: np.ndarray, totals: np.ndarray, keys: np.ndarray) -> None:
        weights *= totals[self.codes(keys)]


class CardinalityExecutor:
    """Computes exact COUNT(*) results for queries against a database.

    Each join edge is counted by a linear key-domain fold (child weights
    scatter-added per key) and gather (parent factors read per key); the
    edge's domain is derived once per executor and shared across threads.
    The executor is safe to share between threads (concurrent labeling).

    ``cache_capacity`` enables signature-keyed LRU memoization of results:
    plan enumeration and repeated scenario runs execute the same connected
    sub-plans over and over (the executor is the by-far dominant cost of
    plan-quality evaluation), and a query's :meth:`~repro.db.query.Query.signature`
    is a sound memo key because the database snapshot is immutable.
    ``cache_hits``/``cache_misses`` count lookups.

    ``scan_cache_capacity`` enables a second, finer-grained LRU over
    per-(table, predicate-set) qualifying-row arrays.  Connected sub-plans of
    one query all scan the same base tables under the same predicate
    conjunctions, so during plan enumeration each base scan is executed once
    and shared across the whole sub-plan fan-out (and across sub-plans of
    *other* queries that filter a table identically).  Cached arrays are
    treated as read-only by every counting path.  ``scan_reuse_hits`` /
    ``scan_reuse_misses`` count lookups.
    """

    def __init__(
        self,
        database: Database,
        cache_capacity: int | None = None,
        scan_cache_capacity: int | None = None,
    ):
        self.database = database
        self._cache = LRU(cache_capacity) if cache_capacity is not None else None
        self._scan_cache = LRU(scan_cache_capacity) if scan_cache_capacity is not None else None
        self._key_domains: dict[tuple, _JoinKeyDomain] = {}
        self._key_domain_lock = threading.Lock()

    @property
    def cache_hits(self) -> int:
        return self._cache.hits if self._cache is not None else 0

    @property
    def cache_misses(self) -> int:
        return self._cache.misses if self._cache is not None else 0

    @property
    def scan_reuse_hits(self) -> int:
        return self._scan_cache.hits if self._scan_cache is not None else 0

    @property
    def scan_reuse_misses(self) -> int:
        return self._scan_cache.misses if self._scan_cache is not None else 0

    # ------------------------------------------------------------------
    def execute(self, query: Query) -> int:
        """Exact cardinality of ``query``.

        Disconnected queries are treated as cross products of their connected
        components (the workload generators never produce them, but the
        semantics are well defined).
        """
        if self._cache is None:
            return self._execute_uncached(query)
        signature = query.signature()
        result = self._cache.get(signature)
        if result is None:
            result = self._execute_uncached(query)
            self._cache.put(signature, result)
        return result

    def _execute_uncached(self, query: Query) -> int:
        query.validate_against(self.database.schema)
        qualifying_rows = {
            table: self._qualifying_rows(query, table) for table in query.tables
        }
        if any(len(rows) == 0 for rows in qualifying_rows.values()):
            return 0
        components = self._connected_components(query)
        total = 1
        for component_tables, component_joins in components:
            total *= self._count_component(component_tables, component_joins, qualifying_rows)
            if total == 0:
                return 0
        return int(total)

    # ------------------------------------------------------------------
    def _qualifying_rows(self, query: Query, table_name: str) -> np.ndarray:
        """Qualifying row indices of one base table, via the scan memo.

        The memo key is the table plus its predicate conjunction in a
        canonical order — exactly the quantity every connected sub-plan that
        touches the table shares, whatever other tables it joins.
        """
        predicates = query.predicates_on(table_name)
        if self._scan_cache is None:
            return self._scan_qualifying_rows(table_name, predicates)
        key = (
            table_name,
            tuple(sorted((p.column, p.operator.value, p.value) for p in predicates)),
        )
        rows = self._scan_cache.get(key)
        if rows is None:
            rows = self._scan_qualifying_rows(table_name, predicates)
            self._scan_cache.put(key, rows)
        return rows

    def _scan_qualifying_rows(self, table_name: str, predicates) -> np.ndarray:
        table = self.database.table(table_name)
        if not predicates:
            return np.arange(table.num_rows, dtype=np.int64)
        return np.flatnonzero(selection_mask(table, predicates)).astype(np.int64)

    def _key_domain(self, join) -> _JoinKeyDomain:
        """The join edge's key domain, built once per executor for both orientations."""
        key = tuple(
            sorted([(join.left_table, join.left_column), (join.right_table, join.right_column)])
        )
        with self._key_domain_lock:
            domain = self._key_domains.get(key)
            if domain is None:
                columns = (self.database.table(table).column(column) for table, column in key)
                domain = self._key_domains[key] = _JoinKeyDomain(*columns)
        return domain

    def _connected_components(self, query: Query):
        """Split the query into connected components of its join graph."""
        remaining = set(query.tables)
        components = []
        adjacency: dict[str, list] = {table: [] for table in query.tables}
        for join in query.joins:
            adjacency[join.left_table].append(join)
            adjacency[join.right_table].append(join)
        while remaining:
            start = next(iter(remaining))
            seen = {start}
            frontier = [start]
            joins = []
            while frontier:
                current = frontier.pop()
                for join in adjacency[current]:
                    other = join.other_table(current)
                    if join not in joins:
                        joins.append(join)
                    if other not in seen:
                        seen.add(other)
                        frontier.append(other)
            remaining -= seen
            components.append((tuple(seen), tuple(joins)))
        return components

    def _count_component(self, tables, joins, qualifying_rows) -> int:
        if len(tables) == 1:
            return int(len(qualifying_rows[tables[0]]))
        if self._is_tree(tables, joins):
            return self._count_tree(tables, joins, qualifying_rows)
        return self._count_by_expansion(tables, joins, qualifying_rows)

    @staticmethod
    def _is_tree(tables, joins) -> bool:
        # A connected graph is a tree iff |E| = |V| - 1 and no edge repeats a
        # table pair (parallel edges between the same pair form a cycle in the
        # multigraph sense; they are handled by the expansion path).
        if len(joins) != len(tables) - 1:
            return False
        pairs = {frozenset({j.left_table, j.right_table}) for j in joins}
        return len(pairs) == len(joins)

    def _count_tree(self, tables, joins, qualifying_rows) -> int:
        adjacency: dict[str, list] = {table: [] for table in tables}
        for join in joins:
            adjacency[join.left_table].append(join)
            adjacency[join.right_table].append(join)

        root = tables[0]
        # Build a rooted traversal order (parents before children).
        order = [root]
        parent_join = {root: None}
        seen = {root}
        index = 0
        while index < len(order):
            current = order[index]
            index += 1
            for join in adjacency[current]:
                child = join.other_table(current)
                if child not in seen:
                    seen.add(child)
                    parent_join[child] = join
                    order.append(child)

        # Bottom-up weight propagation over each edge's key domain.
        weights = {
            table: np.ones(len(qualifying_rows[table]), dtype=np.float64) for table in tables
        }
        for table in reversed(order[1:]):
            join = parent_join[table]
            parent = join.other_table(table)
            domain = self._key_domain(join)
            child_keys = self._keys(table, join.column_of(table), qualifying_rows[table])
            totals = domain.fold(child_keys, weights[table])
            parent_keys = self._keys(parent, join.column_of(parent), qualifying_rows[parent])
            domain.apply(weights[parent], totals, parent_keys)
        return int(round(weights[root].sum()))

    def _keys(self, table: str, column: str, rows: np.ndarray) -> np.ndarray:
        """The ``column`` values of ``rows``; the column itself for an unfiltered scan."""
        values = self.database.table(table).column(column)
        if len(rows) == len(values):  # an unfiltered scan: rows are 0..n-1
            return values
        return values[rows]

    def _count_by_expansion(self, tables, joins, qualifying_rows) -> int:
        """Iterative hash-join expansion for cyclic join graphs.

        Materializes intermediate row-index tuples; only used for query shapes
        the workload generators never emit.
        """
        joins = list(joins)
        current_tables = [joins[0].left_table]
        rows = qualifying_rows[joins[0].left_table]
        current = [(int(row),) for row in rows]
        remaining_joins = joins
        while remaining_joins:
            progressed = False
            for join in list(remaining_joins):
                left_in = join.left_table in current_tables
                right_in = join.right_table in current_tables
                if left_in and right_in:
                    current = self._filter_existing(current, current_tables, join)
                    remaining_joins.remove(join)
                    progressed = True
                elif left_in or right_in:
                    anchored = join.left_table if left_in else join.right_table
                    new_table = join.other_table(anchored)
                    current = self._expand(
                        current, current_tables, join, anchored, new_table, qualifying_rows
                    )
                    current_tables.append(new_table)
                    remaining_joins.remove(join)
                    progressed = True
                if not current:
                    return 0
            if not progressed:  # pragma: no cover - defensive, disconnected joins
                raise ValueError("join graph could not be processed")
        return len(current)

    def _expand(self, current, current_tables, join, anchored, new_table, qualifying_rows):
        anchor_index = current_tables.index(anchored)
        anchor_column = self.database.table(anchored).column(join.column_of(anchored))
        new_rows = qualifying_rows[new_table]
        new_keys = self.database.table(new_table).column_values(
            join.column_of(new_table), new_rows
        )
        buckets: dict[int, list[int]] = defaultdict(list)
        for row, key in zip(new_rows.tolist(), new_keys.tolist()):
            buckets[key].append(row)
        expanded = []
        for combination in current:
            key = int(anchor_column[combination[anchor_index]])
            for row in buckets.get(key, ()):
                expanded.append(combination + (row,))
        return expanded

    def _filter_existing(self, current, current_tables, join):
        left_index = current_tables.index(join.left_table)
        right_index = current_tables.index(join.right_table)
        left_column = self.database.table(join.left_table).column(join.left_column)
        right_column = self.database.table(join.right_table).column(join.right_column)
        return [
            combination
            for combination in current
            if left_column[combination[left_index]] == right_column[combination[right_index]]
        ]


def nested_loop_cardinality(database: Database, query: Query) -> int:
    """Brute-force reference executor (exponential; for tests on tiny tables)."""
    query.validate_against(database.schema)
    tables = [database.table(name) for name in query.tables]
    qualifying = []
    for table in tables:
        predicates = query.predicates_on(table.name)
        mask = selection_mask(table, predicates) if predicates else np.ones(table.num_rows, bool)
        qualifying.append(np.flatnonzero(mask))
    count = 0
    table_positions = {table.name: position for position, table in enumerate(tables)}
    for combination in itertools.product(*qualifying):
        satisfied = True
        for join in query.joins:
            left_row = combination[table_positions[join.left_table]]
            right_row = combination[table_positions[join.right_table]]
            left_value = database.table(join.left_table).column(join.left_column)[left_row]
            right_value = database.table(join.right_table).column(join.right_column)[right_row]
            if left_value != right_value:
                satisfied = False
                break
        if satisfied:
            count += 1
    return count
