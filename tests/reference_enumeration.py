"""The exhaustive join-tree enumerator that the DP is certified against.

:func:`all_join_trees` lists every cross-product-free join tree of a
connected query (Catalan-sized, so only for the few-table queries tests
use); the cheapest of them under any cardinality map must cost what
:func:`~repro.optimizer.enumeration.enumerate_optimal_plan` returns.
"""

from __future__ import annotations

from repro.db.query import Query
from repro.optimizer.plan import JoinTree


def all_join_trees(query: Query) -> list[JoinTree]:
    """Every cross-product-free join tree of a connected query.

    Built from the query's memoized split table, as the DP is; commutative
    mirrors are deduplicated via :meth:`JoinTree.canonical`.
    """
    if not query.is_connected():
        raise ValueError("join enumeration requires a connected join graph")
    trees_by_mask: dict[int, list[JoinTree]] = {
        1 << position: [JoinTree.leaf(table)] for position, table in enumerate(query.tables)
    }
    for mask, tables, splits in query.connected_subset_splits():
        found: dict[tuple, JoinTree] = {}
        for left, right in splits:
            for left_tree in trees_by_mask[left]:
                for right_tree in trees_by_mask[right]:
                    tree = JoinTree(tables, left_tree, right_tree)
                    found.setdefault(tree.canonical(), tree)
        trees_by_mask[mask] = list(found.values())

    full_mask = (1 << len(query.tables)) - 1
    return trees_by_mask[full_mask]
