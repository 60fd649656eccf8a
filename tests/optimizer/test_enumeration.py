"""Tests certifying the DPsize enumerator against exhaustive enumeration
and against a reference DP that re-derives its partitions on every call."""

from __future__ import annotations

import itertools

import numpy as np
import pytest
from reference_enumeration import all_join_trees

from repro.datasets import registered_datasets
from repro.db.query import JoinCondition, Query
from repro.optimizer.cost import cout_cost
from repro.optimizer.enumeration import enumerate_optimal_plan
from repro.optimizer.plan import JoinTree
from repro.workload.generator import QueryGenerator


def _chain(tables: tuple[str, ...]) -> Query:
    joins = tuple(
        JoinCondition(tables[i], "k", tables[i + 1], "k") for i in range(len(tables) - 1)
    )
    return Query(tables=tables, joins=joins)


def _star(hub: str, spokes: tuple[str, ...]) -> Query:
    joins = tuple(JoinCondition(hub, f"k{i}", spoke, f"k{i}") for i, spoke in enumerate(spokes))
    return Query(tables=(hub, *spokes), joins=joins)


def _cycle(tables: tuple[str, ...]) -> Query:
    joins = tuple(
        JoinCondition(tables[i], "k", tables[(i + 1) % len(tables)], "k")
        for i in range(len(tables))
    )
    return Query(tables=tables, joins=joins)


def _random_cardinalities(query: Query, rng: np.random.Generator) -> dict[frozenset[str], float]:
    return {
        subset: float(rng.integers(1, 10_000))
        for subset in query.connected_table_subsets()
    }


class TestEnumerateOptimalPlan:
    def test_chain_picks_cheap_side_first(self):
        query = _chain(("a", "b", "c"))
        cards = {
            frozenset({"a"}): 10.0,
            frozenset({"b"}): 100.0,
            frozenset({"c"}): 10.0,
            frozenset({"a", "b"}): 1000.0,
            frozenset({"b", "c"}): 5.0,
            frozenset({"a", "b", "c"}): 50.0,
        }
        plan = enumerate_optimal_plan(query, cards)
        assert str(plan.tree) in {"(a ⋈ (b ⋈ c))", "((b ⋈ c) ⋈ a)"}
        assert plan.cost == 55.0

    def test_single_table_query(self):
        plan = enumerate_optimal_plan(Query(tables=("solo",)), {frozenset({"solo"}): 42.0})
        assert plan.tree.is_leaf
        assert plan.cost == 0.0

    def test_no_cross_products_in_enumerated_trees(self):
        query = _star("h", ("s1", "s2", "s3"))
        for tree in all_join_trees(query):
            for node in tree.iter_joins():
                # Every join node's table set must be connected in the query.
                assert frozenset(node.tables) in query.connected_table_subsets()

    @pytest.mark.parametrize(
        "query",
        [
            _chain(("a", "b", "c", "d")),
            _star("h", ("s1", "s2", "s3")),
            _cycle(("a", "b", "c", "d")),
            _chain(("a", "b", "c", "d", "e")),
        ],
        ids=["chain4", "star4", "cycle4", "chain5"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_dp_matches_brute_force(self, query, seed):
        rng = np.random.default_rng(seed)
        cards = _random_cardinalities(query, rng)
        plan = enumerate_optimal_plan(query, cards)
        brute_force = min(cout_cost(tree, cards) for tree in all_join_trees(query))
        assert plan.cost == brute_force
        # The returned tree's cost must equal the claimed cost.
        assert cout_cost(plan.tree, cards) == plan.cost

    def test_deterministic_across_runs(self):
        query = _star("h", ("s1", "s2", "s3"))
        cards = _random_cardinalities(query, np.random.default_rng(5))
        first = enumerate_optimal_plan(query, cards)
        second = enumerate_optimal_plan(query, cards)
        assert first.tree == second.tree

    def test_disconnected_query_rejected(self):
        query = Query(tables=("a", "b"))  # no joins → cross product
        with pytest.raises(ValueError, match="connected"):
            enumerate_optimal_plan(query, {})
        with pytest.raises(ValueError, match="connected"):
            all_join_trees(query)

    def test_missing_cardinality_raises_key_error(self):
        query = _chain(("a", "b", "c"))
        cards = _random_cardinalities(query, np.random.default_rng(0))
        del cards[frozenset({"a", "b"})]
        with pytest.raises(KeyError, match="every connected sub-plan"):
            enumerate_optimal_plan(query, cards)


class TestAllJoinTrees:
    def test_chain3_has_two_trees(self):
        assert len(all_join_trees(_chain(("a", "b", "c")))) == 2

    def test_star3_has_six_trees(self):
        # Left-deep orders of three spokes around the hub: 3! = 6 (bushy
        # shapes would need a spoke-spoke edge, which a star lacks).
        assert len(all_join_trees(_star("h", ("s1", "s2", "s3")))) == 6

    def test_trees_are_unique_modulo_commutativity(self):
        trees = all_join_trees(_cycle(("a", "b", "c", "d")))
        canons = [tree.canonical() for tree in trees]
        assert len(canons) == len(set(canons))

    def test_chain_tree_counts_are_catalan(self):
        # Every sub-plan of a chain is a contiguous segment, so the trees
        # over an n-chain are counted by the Catalan numbers C(n-1): 2, 5, 14.
        for n, expected in ((3, 2), (4, 5), (5, 14)):
            tables = tuple(f"t{i}" for i in range(n))
            trees = all_join_trees(_chain(tables))
            for left, right in itertools.combinations(trees, 2):
                assert left.canonical() != right.canonical()
            assert len(trees) == expected


# ----------------------------------------------------------------------
# Differential check against a reference DP
# ----------------------------------------------------------------------
# The reference derives everything per call from the join graph:
# connected-subset masks, the submask loop with an explicit cross-edge test,
# and a fresh validated ``JoinTree`` for every champion improvement.  Plans,
# costs and the set of trees must be identical, ties included.


def _reference_masks(query: Query) -> tuple[list[int], list[int]]:
    order = {table: position for position, table in enumerate(query.tables)}
    adjacency = [0] * len(query.tables)
    for join in query.joins:
        left, right = order[join.left_table], order[join.right_table]
        adjacency[left] |= 1 << right
        adjacency[right] |= 1 << left
    masks = []
    for subset in query.connected_table_subsets():
        if len(subset) >= 2:
            masks.append(sum(1 << order[table] for table in subset))
    return masks, adjacency


def _reference_tables(query: Query, mask: int) -> frozenset[str]:
    return frozenset(
        table for position, table in enumerate(query.tables) if mask >> position & 1
    )


def _reference_cross_edge(submask: int, complement: int, adjacency: list[int]) -> bool:
    reach = 0
    probe = submask
    while probe:
        position = probe.bit_length() - 1
        probe &= ~(1 << position)
        reach |= adjacency[position]
    return bool(reach & complement)


def _reference_partitions(mask: int, solved, adjacency: list[int]):
    """Connected, edge-crossing partitions of ``mask`` in submask order."""
    lowest = mask & -mask
    submask = (mask - 1) & mask
    while submask:
        if submask & lowest:
            complement = mask ^ submask
            if (
                solved.get(submask)
                and solved.get(complement)
                and _reference_cross_edge(submask, complement, adjacency)
            ):
                yield submask, complement
        submask = (submask - 1) & mask


def _reference_plan(query: Query, cards) -> tuple[JoinTree, float]:
    if len(query.tables) == 1:
        return JoinTree.leaf(query.tables[0]), 0.0
    masks, adjacency = _reference_masks(query)
    best = {1 << p: (0.0, JoinTree.leaf(t)) for p, t in enumerate(query.tables)}
    for mask in masks:
        output = float(cards[_reference_tables(query, mask)])
        champion = None
        for submask, complement in _reference_partitions(mask, best, adjacency):
            left, right = best[submask], best[complement]
            cost = left[0] + right[0] + output
            if champion is None or cost < champion[0]:
                champion = (cost, JoinTree.join(left[1], right[1]))
        best[mask] = champion
    cost, tree = best[(1 << len(query.tables)) - 1]
    return tree, cost


def _reference_all_join_trees(query: Query) -> list[JoinTree]:
    masks, adjacency = _reference_masks(query)
    trees = {1 << p: [JoinTree.leaf(t)] for p, t in enumerate(query.tables)}
    for mask in masks:
        found = {}
        for submask, complement in _reference_partitions(mask, trees, adjacency):
            for left in trees[submask]:
                for right in trees[complement]:
                    tree = JoinTree.join(left, right)
                    found.setdefault(tree.canonical(), tree)
        trees[mask] = list(found.values())
    return trees[(1 << len(query.tables)) - 1]


@pytest.fixture(scope="module")
def generated_queries() -> list[Query]:
    """Connected 0-4-join generator queries of every registered dataset."""
    queries = []
    for spec in registered_datasets():
        database = spec.generate(scale=0.05, seed=7)
        config = spec.training_workload_config(
            40, seed=3, max_joins=min(4, spec.join_graph().max_joins_per_query)
        )
        queries.extend(l.query for l in QueryGenerator(database, config).generate())
    return queries


_SHAPES = [
    _chain(("a", "b")),
    _chain(("a", "b", "c", "d")),
    _chain(("a", "b", "c", "d", "e")),
    _star("h", ("s1", "s2", "s3")),
    _star("h", ("s1", "s2", "s3", "s4")),
    _cycle(("a", "b", "c")),
    _cycle(("a", "b", "c", "d", "e")),
    _chain(("a", "b", "c", "d", "e", "f")),
    _cycle(("a", "b", "c", "d", "e", "f")),
    Query(tables=("solo",)),
]


def _cardinality_maps(query: Query, seed: int):
    """Random cardinalities, then tied ones (values 1-3) that exercise the tie-break.

    The random ones span six decades with full mantissas, so summing a
    plan's costs in another order would round differently somewhere.
    """
    rng = np.random.default_rng(seed)
    subsets = query.connected_table_subsets()
    for _ in range(6):
        yield {s: float(10.0 ** rng.uniform(0.0, 6.0)) for s in subsets}
    for _ in range(6):
        yield {s: float(rng.integers(1, 4)) for s in subsets}


def _assert_matches_reference(query: Query, seed: int) -> None:
    for cards in _cardinality_maps(query, seed):
        plan = enumerate_optimal_plan(query, cards)
        tree, cost = _reference_plan(query, cards)
        assert plan.tree == tree, (query.tables, cards)
        assert plan.cost == cost
    assert all_join_trees(query) == _reference_all_join_trees(query)


class TestMatchesReferenceDP:
    @pytest.mark.parametrize(
        "query",
        _SHAPES,
        ids=["chain2", "chain4", "chain5", "star4", "star5", "cycle3", "cycle5",
             "chain6", "cycle6", "solo"],
    )
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_hand_built_shapes(self, query, seed):
        _assert_matches_reference(query, seed)

    def test_generator_queries_of_every_dataset(self, generated_queries):
        assert max(query.num_joins for query in generated_queries) == 4
        for seed, query in enumerate(generated_queries):
            _assert_matches_reference(query, seed)


class TestSplitTable:
    def test_built_once_per_query_and_shared(self, monkeypatch):
        derivations = []
        derive = Query._derive_subset_splits

        def counting(self):
            derivations.append(self)
            return derive(self)

        monkeypatch.setattr(Query, "_derive_subset_splits", counting)
        query = _star("h", ("s1", "s2", "s3"))
        cards = _random_cardinalities(query, np.random.default_rng(0))
        enumerate_optimal_plan(query, cards)
        enumerate_optimal_plan(query, cards)
        all_join_trees(query)
        assert derivations == [query]
        # An equal but distinct query object derives its own table.
        enumerate_optimal_plan(_star("h", ("s1", "s2", "s3")), cards)
        assert len(derivations) == 2

    def test_entries_reuse_the_memoized_subsets(self):
        query = _cycle(("a", "b", "c", "d"))
        entries = query.connected_subset_splits()
        multi_table = [s for s in query.connected_table_subsets() if len(s) >= 2]
        assert len(entries) == len(multi_table)
        for entry, subset in zip(entries, multi_table):
            assert entry.tables is subset
            assert entry.mask == sum(1 << query.tables.index(t) for t in subset)
            for left, right in entry.splits:
                assert left | right == entry.mask and not left & right
                assert left & (entry.mask & -entry.mask)  # lowest bit anchored left

    def test_single_table_query_has_no_entries(self):
        assert Query(tables=("solo",)).connected_subset_splits() == ()
