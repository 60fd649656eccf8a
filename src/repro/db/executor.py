"""True-cardinality execution.

The paper uses HyPer to label training queries with their true result sizes
(Section 4).  This module provides the same capability for the in-memory
engine: it evaluates base-table predicates and counts the result of the
PK/FK equi-join without materializing it.

For the tree-shaped join graphs produced by the workload generators (every
join adds one new table), counting follows a Yannakakis-style bottom-up
weight propagation.  The tree is rooted at the table with the most qualifying
rows.  Each edge carries a *message*: the child subtree's row weights summed
per join key.  A row's weight is the product over its child tables of the
messages it matches, and the result cardinality is the sum of the root's row
weights.  This runs in time linear in the table sizes rather than in the size
of the join result.

One counting core answers a whole list of connected table subsets of one
query: :meth:`CardinalityExecutor.execute` asks it for the full table set,
and :meth:`CardinalityExecutor.execute_subplans` for every connected sub-plan
a join-order optimizer costs.  Each base table is scanned once per call, each
edge message is folded once per (child, child-side subtree) and shared by
every subset that contains that subtree, and the root's qualifying rows are
walked in fixed blocks: each block gathers every distinct root factor once
and builds each root-topped subset's product from a prefix shared with the
previous subset.  Subsets topped by another table sum that table's weights
from the same messages.

Each join edge is counted over a dense key domain: a child's weights are
scatter-added into one float64 total per key (the keys are their own codes,
since every generator emits keys ``1..N``) and each parent row gathers its
factor from those totals by key — linear time, no sort and no search.  An
edge with negative keys, or keys spread far wider than its rows (huge ids,
row-sampled tables), first codes its keys by rank in the sorted union of
both columns' distinct values; that union is built once per executor.

All weights are integer-valued float64 and every term is non-negative, so a
count is exact while its total stays below 2**53; a count that reaches it
raises :class:`OverflowError` instead of returning a rounded label.

Two :class:`~repro.utils.lru.LRU` memos sit in front of the counting:
``cache_capacity`` memoizes whole results by query signature, and
``scan_cache_capacity`` memoizes per-(table, predicate-set) qualifying rows
across calls (:meth:`~CardinalityExecutor.execute` callers that count one
sub-plan at a time, and other queries that filter a table identically).

Cyclic join graphs (not produced by the generators, but accepted by the API)
fall back to iterative hash-join expansion.  The tests check every count
against a brute-force nested-loop reference
(``tests/reference_executor.py``).
"""

from __future__ import annotations

import threading
from collections import defaultdict

import numpy as np

from repro.db.predicates import selection_mask
from repro.db.query import Query
from repro.db.table import Database
from repro.utils.lru import LRU

__all__ = ["CardinalityExecutor"]


# Keys are their own domain codes when all are non-negative and the largest
# stays below this multiple of the edge's longer column; otherwise they are
# coded by rank in the edge's sorted distinct-value union.
_DENSE_SPAN_FACTOR = 4

# The root's qualifying rows are multiplied out this many at a time, so the
# root side holds block-sized factor and product arrays, never full-length ones.
_ROOT_BLOCK_ROWS = 1 << 16

# Integer-valued float64 sums are exact below this.
_EXACT_LIMIT = float(2**53)

# What a subset needs of a table's weights: a message to its parent, a sum.
_SEND, _SUM = 1, 2


class _JoinKeyDomain:
    """Codes both key columns of one join edge into ``[0, size)``.

    Every key of either column has a code, so neither the fold nor a gather of
    its totals needs a membership test: a parent key no child row carries reads total 0.
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

    def fold(self, keys: np.ndarray, weights: np.ndarray | None) -> np.ndarray:
        """Summed ``weights`` per key code (added in input order); ``None``
        weighs every row 1."""
        totals = np.bincount(self.codes(keys), weights, minlength=self.size)
        return totals if weights is not None else totals.astype(np.float64)


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
    per-(table, predicate-set) qualifying-row arrays.  One
    :meth:`execute_subplans` call scans each table once by construction; the
    memo serves :meth:`execute` callers that count a query's sub-plans one at
    a time, and other queries that filter a table identically.  Cached
    arrays are treated as read-only by every counting path.
    ``scan_reuse_hits`` / ``scan_reuse_misses`` count lookups.
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

    def execute_subplans(self, query: Query) -> list[int]:
        """Exact cardinality of every connected sub-plan of ``query``,
        aligned with :meth:`~repro.db.query.Query.connected_subqueries`.

        The result memo sees exactly the traffic of calling :meth:`execute`
        on each sub-plan in order (one ``get`` per sub-plan, a ``put`` after
        each miss), so its hits, misses and contents match that loop; the
        sub-plans it does not hold are counted together in one pass of the
        counting core.  Cyclic and disconnected queries run :meth:`execute`
        per sub-plan.
        """
        subqueries = query.connected_subqueries()
        if not (query.is_connected() and self._is_tree(query.tables, query.joins)):
            return [self.execute(subquery) for subquery in subqueries]
        subsets = query.connected_table_subsets()
        if self._cache is None:
            return self._count_query_subsets(query, subsets)
        signatures = [subquery.signature() for subquery in subqueries]
        # Peeking does not count as a lookup: it only decides which counts
        # the one core pass must produce before the lookups are replayed.
        counts = [self._cache.peek(signature) for signature in signatures]
        missing = [position for position, count in enumerate(counts) if count is None]
        if missing:
            fresh = self._count_query_subsets(query, [subsets[i] for i in missing])
            for position, count in zip(missing, fresh):
                counts[position] = count
        for signature, count in zip(signatures, counts):
            if self._cache.get(signature) is None:
                self._cache.put(signature, count)
        return counts

    def _execute_uncached(self, query: Query) -> int:
        query.validate_against(self.database.schema)
        qualifying_rows = {
            table: self._qualifying_rows(query, table) for table in query.tables
        }
        if any(len(rows) == 0 for rows in qualifying_rows.values()):
            return 0
        total = 1
        for component_tables, component_joins in self._connected_components(query):
            total *= self._count_component(
                query, component_tables, component_joins, qualifying_rows
            )
            if total == 0:
                return 0
        return int(total)

    def _count_query_subsets(self, query: Query, subsets) -> list[int]:
        """Counts of connected ``subsets`` of the tree query ``query``."""
        query.validate_against(self.database.schema)
        qualifying_rows = {
            table: self._qualifying_rows(query, table) for table in query.tables
        }
        return self._count_subsets(query, query.tables, query.joins, subsets, qualifying_rows)

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
        """Split the query into connected components of its join graph; each
        component lists its tables in query order."""
        remaining = set(query.tables)
        components = []
        adjacency: dict[str, list] = {table: [] for table in query.tables}
        for join in query.joins:
            adjacency[join.left_table].append(join)
            adjacency[join.right_table].append(join)
        for start in query.tables:
            if start not in remaining:
                continue
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
            tables = tuple(table for table in query.tables if table in seen)
            components.append((tables, tuple(joins)))
        return components

    def _count_component(self, query, tables, joins, qualifying_rows) -> int:
        if len(tables) == 1:
            return int(len(qualifying_rows[tables[0]]))
        if self._is_tree(tables, joins):
            return self._count_subsets(
                query, tables, joins, [frozenset(tables)], qualifying_rows
            )[0]
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

    # -- the counting core ------------------------------------------------
    def _count_subsets(self, query, tables, joins, subsets, qualifying_rows) -> list[int]:
        """Exact counts of connected ``subsets`` of one join tree.

        ``tables`` (in query order) and ``joins`` form the tree.  It is rooted
        at the table with the most qualifying rows, the first in query order
        on a tie.  In subset ``S``, every table ``u`` below ``S``'s top table
        sends its parent the message of ``(u, S ∩ subtree(u))``: such a
        message is folded once, children before parents, and shared by every
        subset that needs it.  A subset topped by another table sums that
        table's weights; root-topped subsets are multiplied out over blocks
        of root rows (:meth:`_count_rooted`).
        """
        sizes = [len(qualifying_rows[table]) for table in tables]
        root = tables[sizes.index(max(sizes))]
        adjacency: dict[str, list] = {table: [] for table in tables}
        for join in joins:
            adjacency[join.left_table].append(join)
            adjacency[join.right_table].append(join)
        # Parents before children; ``edges`` maps every other table to the
        # join with its parent and that join's key domain.
        order = [root]
        depth = {root: 0}
        edges: dict[str, tuple] = {}
        children: dict[str, list] = {table: [] for table in tables}
        for current in order:
            for join in adjacency[current]:
                child = join.other_table(current)
                if child not in depth:
                    depth[child] = depth[current] + 1
                    edges[child] = (join, self._key_domain(join))
                    children[current].append(child)
                    order.append(child)
        subtree: dict[str, frozenset] = {}
        for table in reversed(order):
            subtree[table] = frozenset((table,)).union(*(subtree[c] for c in children[table]))

        # Per table, the subset parts at or below it whose weights some
        # subset needs: sent up as a message (_SEND) from every table but a
        # subset's top, and summed (_SUM) at a top other than the root.
        needs: dict[str, dict] = {table: {} for table in tables}
        rooted = []
        for subset in subsets:
            top = min(subset, key=depth.__getitem__)
            for table in subset:
                if table != top:
                    below = subset & subtree[table]
                    needs[table][below] = needs[table].get(below, 0) | _SEND
            if top != root:
                needs[top][subset] = needs[top].get(subset, 0) | _SUM
            elif len(subset) > 1:
                rooted.append(subset)

        messages: dict[tuple, np.ndarray] = {}
        totals: dict[frozenset, float] = {}
        for table in reversed(order):  # the root needs nothing here
            rows = qualifying_rows[table]
            codes: dict[str, np.ndarray] = {}  # this table's key codes per child
            for below, flags in needs[table].items():
                weights = None
                for child in children[table]:
                    if child in below:
                        child_codes = codes.get(child)
                        if child_codes is None:
                            join, domain = edges[child]
                            keys = self._keys(table, join.column_of(table), rows)
                            child_codes = codes[child] = domain.codes(keys)
                        factor = messages[child, below & subtree[child]][child_codes]
                        if weights is None:
                            weights = factor
                        else:
                            weights *= factor
                if flags & _SEND:
                    join, domain = edges[table]
                    keys = self._keys(table, join.column_of(table), rows)
                    messages[table, below] = domain.fold(keys, weights)
                if flags & _SUM:
                    totals[below] = len(rows) if weights is None else float(weights.sum())
        if rooted:
            totals.update(
                self._count_rooted(
                    root, qualifying_rows[root], rooted, children[root], edges, subtree, messages
                )
            )

        counts = []
        for subset in subsets:
            total = totals[subset] if len(subset) > 1 else len(qualifying_rows[next(iter(subset))])
            if not total < _EXACT_LIMIT:
                raise OverflowError(
                    f"the count of {query.subquery(subset).to_sql()!r} reaches 2**53, "
                    "beyond what float64 join weights count exactly"
                )
            counts.append(int(total))
        return counts

    def _count_rooted(self, root, rows, subsets, children, edges, subtree, messages) -> dict:
        """Totals of the root-topped ``subsets`` over the root's ``rows``.

        A subset's product multiplies one message per root child it holds,
        in child order.  The rows are walked in blocks: per block, each child
        edge's keys are coded once and each distinct message gathered once,
        and subsets sorted by their factor lists reuse every prefix product
        they share with their predecessor.
        """
        factor_ids: dict[tuple, int] = {}
        plans = sorted(
            (
                tuple(
                    factor_ids.setdefault((child, subset & subtree[child]), len(factor_ids))
                    for child in children
                    if child in subset
                ),
                subset,
            )
            for subset in subsets
        )
        root_table = self.database.table(root)
        columns = [
            (child, root_table.column(edges[child][0].column_of(root)), edges[child][1])
            for child in dict.fromkeys(child for child, _ in factor_ids)
        ]
        unfiltered = len(rows) == root_table.num_rows
        totals = dict.fromkeys(subsets, 0.0)
        for start in range(0, len(rows), _ROOT_BLOCK_ROWS):
            stop = start + _ROOT_BLOCK_ROWS
            block = slice(start, stop) if unfiltered else rows[start:stop]
            codes = {child: domain.codes(column[block]) for child, column, domain in columns}
            factors = [messages[factor][codes[factor[0]]] for factor in factor_ids]
            previous: tuple = ()
            products: list[np.ndarray] = []
            for ids, subset in plans:
                shared = 0
                while shared < min(len(previous), len(ids)) and previous[shared] == ids[shared]:
                    shared += 1
                del products[shared:]
                for position in ids[shared:]:
                    factor = factors[position]
                    products.append(products[-1] * factor if products else factor)
                totals[subset] += float(products[-1].sum())
                previous = ids
        return totals

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
