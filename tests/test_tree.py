"""Tests for the decision-tree model."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.schema import Schema, categorical, continuous
from repro.verify.walker import walk_apply


def small_tree() -> DecisionTree:
    """x0 <= 0 -> class 0; else (x1 <= 1 -> class 1, else class 0)."""
    schema = Schema((continuous("x0"), continuous("x1")), ("a", "b"))
    account = TreeAccount()
    root = account.new_node(0, np.array([60.0, 40.0]))
    left = account.new_node(1, np.array([50.0, 0.0]))
    right = account.new_node(1, np.array([10.0, 40.0]))
    rl = account.new_node(2, np.array([2.0, 38.0]))
    rr = account.new_node(2, np.array([8.0, 2.0]))
    root.split = NumericSplit(0, 0.0)
    root.left, root.right = left, right
    right.split = NumericSplit(1, 1.0)
    right.left, right.right = rl, rr
    return DecisionTree(root, schema)


class TestNode:
    def test_leaf_properties(self):
        n = Node(0, 0, np.array([3.0, 7.0]))
        assert n.is_leaf
        assert n.majority_class == 1
        assert n.n_records == 10
        assert n.errors == 3
        assert 0 < n.gini < 0.5

    def test_children_raises_on_leaf(self):
        with pytest.raises(ValueError, match="is a leaf"):
            Node(0, 0, np.array([1.0, 1.0])).children()

    def test_make_leaf(self):
        t = small_tree()
        t.root.make_leaf()
        assert t.root.is_leaf
        assert t.n_nodes == 1


class TestDecisionTree:
    def test_structure_counts(self):
        t = small_tree()
        assert t.n_nodes == 5
        assert t.n_leaves == 3
        assert t.depth == 2

    def test_predict(self):
        t = small_tree()
        X = np.array([[-1.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        np.testing.assert_array_equal(t.predict(X), [0, 1, 0])

    def test_apply_routes_to_leaves(self):
        t = small_tree()
        X = np.array([[-1.0, 0.0], [1.0, 0.5], [1.0, 2.0]])
        ids = t.apply(X)
        leaves = {n.node_id for n in t.iter_nodes() if n.is_leaf}
        assert set(ids) <= leaves

    def test_every_record_reaches_exactly_one_leaf(self, rng):
        t = small_tree()
        X = rng.normal(size=(500, 2))
        ids = t.apply(X)
        assert len(ids) == 500
        leaves = {n.node_id for n in t.iter_nodes() if n.is_leaf}
        assert set(np.unique(ids)) <= leaves

    def test_preorder_traversal(self):
        t = small_tree()
        ids = [n.node_id for n in t.iter_nodes()]
        assert ids[0] == t.root.node_id
        assert len(ids) == 5

    def test_render_mentions_splits_and_leaves(self):
        text = small_tree().render()
        assert "x0 <= 0" in text
        assert "leaf" in text
        assert "Group" not in text  # uses this schema's labels
        assert text.count("\n") == 4

    def test_empty_predict(self):
        t = small_tree()
        assert len(t.predict(np.empty((0, 2)))) == 0

    @given(
        hnp.arrays(
            np.float64,
            st.tuples(st.integers(1, 80), st.just(2)),
            elements=st.floats(-5, 5, allow_nan=False),
        )
    )
    @settings(max_examples=40, deadline=None)
    def test_predict_matches_manual_routing(self, X):
        t = small_tree()
        pred = t.predict(X)
        for i, row in enumerate(X):
            node = t.root
            while not node.is_leaf:
                node = node.left if node.split.goes_left(row[None, :])[0] else node.right
            assert pred[i] == node.majority_class


class TestTreeAccount:
    def test_ids_are_sequential(self):
        acc = TreeAccount()
        a = acc.new_node(0, np.array([1.0]))
        b = acc.new_node(1, np.array([1.0]))
        assert (a.node_id, b.node_id) == (0, 1)
        assert acc.created == 2


def chain_tree(depth: int) -> DecisionTree:
    """A degenerate path tree: node i splits x0 <= i, left child is a leaf."""
    schema = Schema((continuous("x0"),), ("a", "b"))
    account = TreeAccount()
    root = account.new_node(0, np.array([depth + 1.0, depth + 1.0]))
    node = root
    for i in range(depth):
        node.split = NumericSplit(0, float(i))
        node.left = account.new_node(i + 1, np.array([1.0, 0.0]))
        node.right = account.new_node(i + 1, np.array([depth - i, depth + 1.0]))
        node = node.right
    return DecisionTree(root, schema)


class TestDeepTreeRouting:
    """Regression: routing recursed per node and hit Python's recursion
    limit (~1000) on deep chain trees; it is iterative now."""

    def test_depth_2000_chain(self):
        t = chain_tree(2_000)
        assert t.depth == 2_000
        X = np.array([[-0.5], [500.5], [10**9]])
        np.testing.assert_array_equal(t.predict(X), [0, 0, 1])
        leaf_ids = t.apply(X)
        assert len(set(leaf_ids)) == 3

    def test_deep_tree_proba(self):
        proba = chain_tree(2_000).predict_proba(np.array([[-0.5], [10**9]]))
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestPredictProba:
    def test_matches_per_leaf_computation(self, rng):
        t = small_tree()
        X = rng.uniform(-2, 3, size=(200, 2))
        proba = t.predict_proba(X)
        # Reference: the former per-leaf masked loop.
        leaf_ids = t.apply(X)
        expected = np.zeros_like(proba)
        for node in t.iter_nodes():
            if not node.is_leaf:
                continue
            mask = leaf_ids == node.node_id
            expected[mask] = node.class_counts / node.class_counts.sum()
        np.testing.assert_array_equal(proba, expected)

    def test_rows_sum_to_one(self, rng):
        t = small_tree()
        X = rng.uniform(-2, 3, size=(64, 2))
        proba = t.predict_proba(X)
        assert proba.shape == (64, 2)
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)

    def test_zero_count_leaf_uniform(self):
        schema = Schema((continuous("x0"),), ("a", "b"))
        account = TreeAccount()
        root = account.new_node(0, np.array([2.0, 2.0]))
        root.split = NumericSplit(0, 0.0)
        root.left = account.new_node(1, np.array([0.0, 0.0]))
        root.right = account.new_node(1, np.array([2.0, 2.0]))
        t = DecisionTree(root, schema)
        proba = t.predict_proba(np.array([[-1.0], [1.0]]))
        np.testing.assert_allclose(proba[0], [0.5, 0.5])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0)


class TestEmptyBatchShapes:
    def test_empty_predict_proba(self):
        t = small_tree()
        proba = t.predict_proba(np.empty((0, 2)))
        assert proba.shape == (0, 2)
        assert proba.dtype == np.float64

    def test_empty_one_dimensional_input(self):
        t = small_tree()
        assert t.predict(np.empty(0)).shape == (0,)
        assert t.apply(np.empty(0)).shape == (0,)


class TestUnseenCategoryRouting:
    """Regression: a category code outside the training vocabulary raised
    IndexError out of CategoricalSplit.goes_left; it now follows the child
    that absorbed more training records (ties go left)."""

    def make_tree(self, left_heavy: bool) -> DecisionTree:
        schema = Schema(
            (categorical("c", ("p", "q")), continuous("x0")), ("a", "b")
        )
        account = TreeAccount()
        root = account.new_node(0, np.array([50.0, 50.0]))
        left = account.new_node(
            1, np.array([60.0, 10.0]) if left_heavy else np.array([10.0, 10.0])
        )
        right = account.new_node(
            1, np.array([10.0, 20.0]) if left_heavy else np.array([40.0, 40.0])
        )
        root.split = CategoricalSplit(0, (True, False))
        root.left, root.right = left, right
        return DecisionTree(root, schema)

    def test_unseen_code_no_longer_raises(self):
        t = self.make_tree(left_heavy=True)
        X = np.array([[2.0, 0.0], [-1.0, 0.0]])  # codes 2 and -1 unseen
        np.testing.assert_array_equal(walk_apply(t, X), [1, 1])
        np.testing.assert_array_equal(t.apply(X), [1, 1])

    def test_unseen_code_follows_heavier_right_child(self):
        t = self.make_tree(left_heavy=False)
        X = np.array([[5.0, 0.0]])
        assert walk_apply(t, X)[0] == 2
        assert t.apply(X)[0] == 2

    def test_seen_codes_unaffected(self):
        t = self.make_tree(left_heavy=False)
        X = np.array([[0.0, 0.0], [1.0, 0.0]])
        np.testing.assert_array_equal(walk_apply(t, X), [1, 2])
        np.testing.assert_array_equal(t.apply(X), [1, 2])
