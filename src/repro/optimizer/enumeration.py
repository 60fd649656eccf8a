"""Dynamic-programming join enumeration (DPsize over connected subgraphs).

Given one query's join graph and a cardinality function covering its
connected sub-plans, :func:`enumerate_optimal_plan` builds the cheapest
binary join tree under the C_out cost model by the classic DPsize
recurrence: the best plan for a connected table set ``S`` is the cheapest
combination of best plans for a partition ``S = S₁ ∪ S₂`` where both parts
are connected and a join edge crosses them (no cross products).

Sub-plan identities are bitmasks over the query's table order.  The
partitions worth trying depend on the join graph alone, so they come from
the query's memoized split table (:meth:`Query.connected_subset_splits`):
re-planning a query runs the DP over floats and integer masks only and
builds one :class:`JoinTree`, for the chosen plan.  Queries in this repo
join a handful of tables, so exhaustive connected-subgraph DP is exact.
"""

from __future__ import annotations

from typing import Mapping

from repro.db.query import Query
from repro.optimizer.plan import JoinTree, Plan

__all__ = ["enumerate_optimal_plan"]


def enumerate_optimal_plan(
    query: Query, cardinalities: Mapping[frozenset[str], float]
) -> Plan:
    """The C_out-optimal join tree of ``query`` under ``cardinalities``.

    ``cardinalities`` maps connected sub-plan table sets to (estimated or
    true) result sizes — the shape ``estimate_subplans`` returns.  Ties are
    broken deterministically towards the plan found first in submask order,
    so identical inputs always yield the identical tree.

    Raises ``ValueError`` for disconnected queries (an optimizer that
    avoids cross products cannot plan them) and ``KeyError`` when a needed
    sub-plan cardinality is missing.
    """
    if not query.is_connected():
        raise ValueError(
            "join enumeration requires a connected join graph; "
            f"query {query.tables} contains a cross product"
        )
    if len(query.tables) == 1:
        tree = JoinTree.leaf(query.tables[0])
        return Plan(tree=tree, cost=0.0)

    # Indexed by mask; single-table sub-plans cost nothing under C_out.
    best_cost = [0.0] * (1 << len(query.tables))
    chosen: dict[int, tuple[frozenset[str], int, int]] = {}
    for mask, tables, splits in query.connected_subset_splits():
        try:
            output_cardinality = float(cardinalities[tables])
        except KeyError:
            raise KeyError(
                f"no cardinality for sub-plan {tuple(sorted(tables))}; "
                "estimate_subplans must cover every connected sub-plan"
            ) from None
        champion = None
        for left, right in splits:
            cost = best_cost[left] + best_cost[right] + output_cardinality
            if champion is None or cost < champion:
                champion = cost
                champion_split = (tables, left, right)
        best_cost[mask] = champion
        chosen[mask] = champion_split

    full_mask = (1 << len(query.tables)) - 1
    return Plan(
        tree=_build_tree(query, chosen, full_mask),
        cost=best_cost[full_mask],
    )


def _build_tree(
    query: Query, chosen: Mapping[int, tuple[frozenset[str], int, int]], mask: int
) -> JoinTree:
    """The join tree the DP chose for ``mask``, built top-down from its splits."""
    split = chosen.get(mask)
    if split is None:
        return JoinTree.leaf(query.tables[mask.bit_length() - 1])
    tables, left, right = split
    return JoinTree(
        tables, _build_tree(query, chosen, left), _build_tree(query, chosen, right)
    )
