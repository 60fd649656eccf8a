"""Join-tree and plan representations.

The paper motivates learned cardinality estimation by its downstream
consumer: the query optimizer's join-order search.  A *plan* here is a
binary join tree over the base tables of one query — the object the
dynamic-programming enumerator (:mod:`repro.optimizer.enumeration`)
produces and the cost model (:mod:`repro.optimizer.cost`) prices.

Physical operator choice is out of scope (the paper's plan-quality
argument is about join *order*), so a tree node carries only its table
set; commutative mirrors ``A ⋈ B`` / ``B ⋈ A`` are considered the same
plan by :meth:`JoinTree.canonical`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

__all__ = ["JoinTree", "Plan"]


@dataclass(frozen=True)
class JoinTree:
    """A node of a binary join tree: either a base-table leaf or a join.

    ``tables`` is the set of base tables below the node — the sub-plan
    identity every cardinality function and cost model keys on.
    """

    tables: frozenset[str]
    left: "JoinTree | None" = None
    right: "JoinTree | None" = None

    def __post_init__(self) -> None:
        if (self.left is None) != (self.right is None):
            raise ValueError("a join node needs both children, a leaf neither")
        if self.left is not None and self.right is not None:
            if self.left.tables & self.right.tables:
                raise ValueError("join children must cover disjoint table sets")
            if self.left.tables | self.right.tables != self.tables:
                raise ValueError("a join node's tables must be the union of its children's")
        elif len(self.tables) != 1:
            raise ValueError("a leaf covers exactly one table")

    # -- construction ----------------------------------------------------
    @classmethod
    def leaf(cls, table: str) -> "JoinTree":
        return cls(tables=frozenset({table}))

    @classmethod
    def join(cls, left: "JoinTree", right: "JoinTree") -> "JoinTree":
        return cls(tables=left.tables | right.tables, left=left, right=right)

    # -- structure -------------------------------------------------------
    @property
    def is_leaf(self) -> bool:
        return self.left is None

    @property
    def table(self) -> str:
        """The leaf's table name (raises on join nodes)."""
        if not self.is_leaf:
            raise ValueError("only leaves name a single table")
        return next(iter(self.tables))

    @property
    def num_joins(self) -> int:
        return len(self.tables) - 1

    def iter_nodes(self) -> Iterator["JoinTree"]:
        """All nodes, children before parents (post-order)."""
        if not self.is_leaf:
            yield from self.left.iter_nodes()
            yield from self.right.iter_nodes()
        yield self

    def iter_joins(self) -> Iterator["JoinTree"]:
        """The join (inner) nodes only, children before parents."""
        for node in self.iter_nodes():
            if not node.is_leaf:
                yield node

    def canonical(self) -> tuple:
        """Order-independent identity (commutative mirrors collapse)."""
        if self.is_leaf:
            return (self.table,)
        return tuple(sorted((self.left.canonical(), self.right.canonical()), key=repr))

    def __str__(self) -> str:
        if self.is_leaf:
            return self.table
        return f"({self.left} ⋈ {self.right})"


@dataclass(frozen=True)
class Plan:
    """A costed join tree: the output of one enumeration run.

    ``cost`` is the plan's total cost under the cardinality function the
    enumerator was driven with.
    """

    tree: JoinTree
    cost: float

    @property
    def tables(self) -> frozenset[str]:
        return self.tree.tables

    @property
    def num_joins(self) -> int:
        return self.tree.num_joins

    def describe(self) -> str:
        return f"{self.tree} @ cost {self.cost:,.1f}"
