"""Tests of the join-tree/plan representation and the C_out cost model."""

from __future__ import annotations

import pytest

from repro.optimizer.plan import JoinTree, Plan
from repro.optimizer.cost import cout_cost, plan_true_cost


def _chain_tree() -> JoinTree:
    return JoinTree.join(JoinTree.leaf("a"), JoinTree.join(JoinTree.leaf("b"), JoinTree.leaf("c")))


class TestJoinTree:
    def test_leaf_properties(self):
        leaf = JoinTree.leaf("a")
        assert leaf.is_leaf
        assert leaf.table == "a"
        assert leaf.num_joins == 0
        assert str(leaf) == "a"

    def test_join_node_structure(self):
        tree = _chain_tree()
        assert not tree.is_leaf
        assert tree.tables == frozenset({"a", "b", "c"})
        assert tree.num_joins == 2
        assert str(tree) == "(a ⋈ (b ⋈ c))"
        with pytest.raises(ValueError):
            _ = tree.table

    def test_iteration_orders_children_first(self):
        tree = _chain_tree()
        join_sets = [node.tables for node in tree.iter_joins()]
        assert join_sets == [frozenset({"b", "c"}), frozenset({"a", "b", "c"})]
        assert len(list(tree.iter_nodes())) == 5

    def test_invalid_nodes_rejected(self):
        with pytest.raises(ValueError):
            JoinTree(tables=frozenset({"a", "b"}))  # two-table leaf
        with pytest.raises(ValueError):
            JoinTree(tables=frozenset({"a"}), left=JoinTree.leaf("a"), right=None)
        with pytest.raises(ValueError):
            JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("a"))  # overlap
        with pytest.raises(ValueError):
            JoinTree(
                tables=frozenset({"a", "b", "c"}),
                left=JoinTree.leaf("a"),
                right=JoinTree.leaf("b"),
            )  # union mismatch

    def test_canonical_collapses_commutative_mirrors(self):
        ab = JoinTree.join(JoinTree.leaf("a"), JoinTree.leaf("b"))
        ba = JoinTree.join(JoinTree.leaf("b"), JoinTree.leaf("a"))
        assert ab.canonical() == ba.canonical()
        abc = JoinTree.join(ab, JoinTree.leaf("c"))
        cab = JoinTree.join(JoinTree.leaf("c"), ba)
        assert abc.canonical() == cab.canonical()
        assert abc.canonical() != _chain_tree().canonical()


class TestCoutCost:
    def test_sums_join_outputs_only(self):
        tree = _chain_tree()
        cards = {
            frozenset({"a"}): 10.0,
            frozenset({"b"}): 20.0,
            frozenset({"c"}): 30.0,
            frozenset({"b", "c"}): 5.0,
            frozenset({"a", "b", "c"}): 7.0,
        }
        # Base-table scans contribute nothing; joins charge their outputs.
        assert cout_cost(tree, cards) == 12.0
        assert plan_true_cost(tree, cards) == 12.0

    def test_leaf_costs_zero(self):
        assert cout_cost(JoinTree.leaf("a"), {}) == 0.0

    def test_missing_subplan_cardinality_raises(self):
        with pytest.raises(KeyError, match="every connected sub-plan"):
            cout_cost(_chain_tree(), {frozenset({"a", "b", "c"}): 1.0})


class TestPlan:
    def test_plan_wraps_tree(self):
        tree = _chain_tree()
        plan = Plan(tree=tree, cost=12.0)
        assert plan.tables == tree.tables
        assert plan.num_joins == 2
        assert "cost 12.0" in plan.describe()
