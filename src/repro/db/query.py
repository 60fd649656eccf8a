"""The query representation used throughout the library.

Following Section 3.1 of the paper, a query is a collection
``(T_q, J_q, P_q)`` of

* a set of tables,
* a set of equi-join conditions over primary/foreign keys,
* a set of base-table predicates ``(column, op, value)``.

Only SELECT COUNT(*) semantics matter for cardinality estimation, so the
representation carries no projection list.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from repro.db.predicates import Operator
from repro.db.schema import ForeignKey, Schema

__all__ = ["Predicate", "JoinCondition", "Query", "SubsetSplits"]


@dataclass(frozen=True, order=True)
class Predicate:
    """A base-table filter of the form ``table.column op value``."""

    table: str
    column: str
    operator: Operator
    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.operator, Operator):
            object.__setattr__(self, "operator", Operator.from_symbol(str(self.operator)))
        object.__setattr__(self, "value", self._integral_value())

    def _integral_value(self) -> int:
        """The literal as an ``int``, refusing values ``int()`` would change.

        Columns store int64 values only, so a literal follows the rule
        their loader applies: a float is accepted when it is finite and
        integral (``1990.0``), and rejected otherwise — ``int(2.5)`` would
        silently turn ``c < 2.5`` into ``c < 2``, a different count.
        """
        value = self.value
        if isinstance(value, numbers.Real) and not isinstance(value, numbers.Integral):
            if not math.isfinite(value) or not float(value).is_integer():
                raise ValueError(
                    f"predicate literal {value!r} on {self.table}.{self.column} "
                    "is not a finite integer; int64 columns cannot compare it exactly"
                )
        return int(value)

    @property
    def qualified_column(self) -> str:
        return f"{self.table}.{self.column}"

    def to_sql(self) -> str:
        return f"{self.table}.{self.column} {self.operator.value} {self.value}"


@dataclass(frozen=True, order=True)
class JoinCondition:
    """An equi-join ``left_table.left_column = right_table.right_column``."""

    left_table: str
    left_column: str
    right_table: str
    right_column: str

    @classmethod
    def from_foreign_key(cls, foreign_key: ForeignKey) -> "JoinCondition":
        return cls(
            left_table=foreign_key.table,
            left_column=foreign_key.column,
            right_table=foreign_key.ref_table,
            right_column=foreign_key.ref_column,
        )

    @property
    def canonical(self) -> str:
        """Direction-independent identifier; used as the join's one-hot key."""
        left = f"{self.left_table}.{self.left_column}"
        right = f"{self.right_table}.{self.right_column}"
        return "=".join(sorted((left, right)))

    @property
    def tables(self) -> frozenset[str]:
        return frozenset({self.left_table, self.right_table})

    def other_table(self, table: str) -> str:
        if table == self.left_table:
            return self.right_table
        if table == self.right_table:
            return self.left_table
        raise ValueError(f"table {table!r} does not participate in join {self.canonical}")

    def column_of(self, table: str) -> str:
        if table == self.left_table:
            return self.left_column
        if table == self.right_table:
            return self.right_column
        raise ValueError(f"table {table!r} does not participate in join {self.canonical}")

    def to_sql(self) -> str:
        return (
            f"{self.left_table}.{self.left_column} = "
            f"{self.right_table}.{self.right_column}"
        )


class SubsetSplits(NamedTuple):
    """One multi-table connected subset of a query's join graph, with every
    way a join-order optimizer may build it from two smaller sub-plans.

    Bit ``i`` of a mask stands for ``query.tables[i]``.  ``splits`` holds the
    unordered partitions ``(left, right)`` of ``mask`` whose halves are both
    connected; ``left`` carries the subset's lowest bit, so commutative
    mirrors appear once.  Because the subset itself is connected, a join edge
    always crosses such a partition: no split is a cross product.
    """

    mask: int
    #: The subset as a table set — the object ``connected_table_subsets()``
    #: returns, so maps keyed by those sets are probed by identity.
    tables: frozenset[str]
    splits: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class Query:
    """A COUNT(*) query over a set of tables, joins and predicates."""

    tables: tuple[str, ...]
    joins: tuple[JoinCondition, ...] = field(default_factory=tuple)
    predicates: tuple[Predicate, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "tables", tuple(self.tables))
        object.__setattr__(self, "joins", tuple(self.joins))
        object.__setattr__(self, "predicates", tuple(self.predicates))
        if not self.tables:
            raise ValueError("a query must reference at least one table")
        if len(set(self.tables)) != len(self.tables):
            raise ValueError("a query must not reference the same table twice")
        table_set = set(self.tables)
        for join in self.joins:
            if not join.tables <= table_set:
                raise ValueError(
                    f"join {join.canonical} references tables outside the query {self.tables}"
                )
        for predicate in self.predicates:
            if predicate.table not in table_set:
                raise ValueError(
                    f"predicate on {predicate.qualified_column} references a table "
                    f"outside the query {self.tables}"
                )

    # -- convenience -----------------------------------------------------
    @property
    def num_joins(self) -> int:
        return len(self.joins)

    @property
    def num_predicates(self) -> int:
        return len(self.predicates)

    def predicates_on(self, table: str) -> tuple[Predicate, ...]:
        return tuple(p for p in self.predicates if p.table == table)

    def validate_against(self, schema: Schema) -> None:
        """Raise ``ValueError`` if the query references unknown schema objects."""
        for table in self.tables:
            if not schema.has_table(table):
                raise ValueError(f"unknown table {table!r}")
        for predicate in self.predicates:
            if not schema.table(predicate.table).has_column(predicate.column):
                raise ValueError(f"unknown column {predicate.qualified_column!r}")
        for join in self.joins:
            if not schema.table(join.left_table).has_column(join.left_column):
                raise ValueError(f"unknown join column {join.left_table}.{join.left_column}")
            if not schema.table(join.right_table).has_column(join.right_column):
                raise ValueError(f"unknown join column {join.right_table}.{join.right_column}")

    def is_connected(self) -> bool:
        """Whether the join graph connects all referenced tables.

        Queries produced by the workload generators are always connected;
        a disconnected query implies a cross product.  The derivation walks
        the query's join graph, so it is memoized like :meth:`signature`.
        """
        cached = self.__dict__.get("_is_connected")
        if cached is not None:
            return cached
        cached = self._derive_connected()
        object.__setattr__(self, "_is_connected", cached)
        return cached

    def _derive_connected(self) -> bool:
        if len(self.tables) == 1:
            return True
        adjacency: dict[str, set[str]] = {table: set() for table in self.tables}
        for join in self.joins:
            adjacency[join.left_table].add(join.right_table)
            adjacency[join.right_table].add(join.left_table)
        seen = {self.tables[0]}
        frontier = [self.tables[0]]
        while frontier:
            current = frontier.pop()
            for neighbour in adjacency[current]:
                if neighbour not in seen:
                    seen.add(neighbour)
                    frontier.append(neighbour)
        return len(seen) == len(self.tables)

    # -- sub-plan derivation ---------------------------------------------
    def subquery(self, tables: Iterable[str]) -> "Query":
        """The query restricted to a subset of its tables.

        The sub-query keeps every join whose two endpoints lie inside the
        subset and every predicate on a subset table; table order follows the
        parent query, so derivation is deterministic.  This is the primitive
        a join-order optimizer fans out over: each connected sub-plan of a
        query is exactly ``query.subquery(subset)`` for a connected subset of
        its join graph.
        """
        subset = set(tables)
        if not subset:
            raise ValueError("a sub-query must keep at least one table")
        missing = subset - set(self.tables)
        if missing:
            raise ValueError(
                f"sub-query tables {sorted(missing)} are not part of the query {self.tables}"
            )
        kept_tables = tuple(table for table in self.tables if table in subset)
        return Query(
            tables=kept_tables,
            joins=tuple(join for join in self.joins if join.tables <= subset),
            predicates=tuple(p for p in self.predicates if p.table in subset),
        )

    def connected_table_subsets(self) -> tuple[frozenset[str], ...]:
        """Every non-empty, join-connected subset of the query's tables.

        These are the sub-plans a dynamic-programming join enumerator must
        cost (DPsize's table of connected subgraphs).  Singletons are always
        connected; larger subsets qualify iff the query's join edges restricted
        to the subset connect it.  Deterministic order: increasing subset size,
        then by the parent query's table order.  Memoized — plan enumeration,
        batched estimation and plan-quality evaluation all walk the same sets.
        """
        cached = self.__dict__.get("_connected_subsets")
        if cached is None:
            cached = self._derive_connected_subsets()
            object.__setattr__(self, "_connected_subsets", cached)
        return cached

    def _derive_connected_subsets(self) -> tuple[frozenset[str], ...]:
        order = {table: position for position, table in enumerate(self.tables)}
        adjacency = [0] * len(self.tables)
        for join in self.joins:
            left = order[join.left_table]
            right = order[join.right_table]
            adjacency[left] |= 1 << right
            adjacency[right] |= 1 << left
        subsets: list[tuple[int, int]] = []  # (popcount, mask), sorted later
        for mask in range(1, 1 << len(self.tables)):
            if self._mask_is_connected(mask, adjacency):
                subsets.append((mask.bit_count(), mask))
        subsets.sort()
        return tuple(
            frozenset(
                table for position, table in enumerate(self.tables) if mask >> position & 1
            )
            for _, mask in subsets
        )

    def connected_subset_splits(self) -> tuple[SubsetSplits, ...]:
        """The split table of DP join enumeration, one entry per multi-table
        connected subset, in :meth:`connected_table_subsets` order.

        Size order is the DPsize invariant: both halves of every split are
        entered before their union.  Splits follow submask order (descending
        submasks of the subset), which fixes the optimizer's tie-break.  The
        table depends on the join graph only, so it is derived once per
        immutable query and shared by every plan enumeration of it.
        """
        cached = self.__dict__.get("_subset_splits")
        if cached is None:
            cached = self._derive_subset_splits()
            object.__setattr__(self, "_subset_splits", cached)
        return cached

    def _derive_subset_splits(self) -> tuple[SubsetSplits, ...]:
        order = {table: position for position, table in enumerate(self.tables)}
        connected: set[int] = set()
        entries = []
        for subset in self.connected_table_subsets():
            mask = 0
            for table in subset:
                mask |= 1 << order[table]
            connected.add(mask)
            if len(subset) < 2:
                continue
            splits = []
            lowest = mask & -mask
            submask = (mask - 1) & mask
            while submask:
                if submask & lowest:
                    complement = mask ^ submask
                    if submask in connected and complement in connected:
                        splits.append((submask, complement))
                submask = (submask - 1) & mask
            entries.append(SubsetSplits(mask, subset, tuple(splits)))
        return tuple(entries)

    @staticmethod
    def _mask_is_connected(mask: int, adjacency: list[int]) -> bool:
        start = mask & -mask  # lowest set bit
        seen = start
        frontier = start
        while frontier:
            position = frontier.bit_length() - 1
            frontier &= ~(1 << position)
            reachable = adjacency[position] & mask & ~seen
            seen |= reachable
            frontier |= reachable
        return seen == mask

    def connected_subqueries(self) -> tuple["Query", ...]:
        """One sub-query per connected subset, aligned with
        :meth:`connected_table_subsets`.

        The last element is the query itself whenever the query is connected
        (the full table set is then the largest connected subset).  Memoized:
        estimators batch these through one fused pass, the optimizer costs
        them, and the serving cache keys on their signatures — deriving them
        once per immutable query keeps all three consumers aligned.
        """
        cached = self.__dict__.get("_connected_subqueries")
        if cached is None:
            cached = tuple(self.subquery(subset) for subset in self.connected_table_subsets())
            object.__setattr__(self, "_connected_subqueries", cached)
        return cached

    def to_sql(self) -> str:
        """Render the query as SQL text (for logging and examples)."""
        from_clause = ", ".join(self.tables)
        conditions = [join.to_sql() for join in self.joins]
        conditions.extend(predicate.to_sql() for predicate in self.predicates)
        sql = f"SELECT COUNT(*) FROM {from_clause}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        return sql + ";"

    def signature(self) -> tuple:
        """A hashable, order-independent identity used for de-duplication.

        Memoized: queries are immutable, and serving-path consumers (the
        result cache, workload de-duplication) canonicalize the same query
        object repeatedly — the sort work should be paid once.
        """
        cached = self.__dict__.get("_signature")
        if cached is None:
            cached = (
                tuple(sorted(self.tables)),
                tuple(sorted(join.canonical for join in self.joins)),
                tuple(
                    sorted(
                        (p.table, p.column, p.operator.value, p.value)
                        for p in self.predicates
                    )
                ),
            )
            object.__setattr__(self, "_signature", cached)
        return cached

