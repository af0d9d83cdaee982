"""Decision-tree model shared by every builder in this repository."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from repro.core.gini import gini
from repro.core.splits import Split
from repro.data.schema import Schema


@dataclass
class Node:
    """One node of a decision tree.

    ``class_counts`` always reflects the training records that reached the
    node; leaves predict their majority class.
    """

    node_id: int
    depth: int
    class_counts: np.ndarray
    split: Split | None = None
    left: "Node | None" = None
    right: "Node | None" = None
    #: Back-pointer to the parent node, wired by :class:`DecisionTree`;
    #: ``None`` at the root (and on nodes never attached to a tree).
    parent: "Node | None" = field(default=None, repr=False, compare=False)

    @property
    def is_leaf(self) -> bool:
        """True when the node has no split."""
        return self.split is None

    @property
    def n_records(self) -> float:
        """Training records that reached this node."""
        return float(self.class_counts.sum())

    @property
    def effective_counts(self) -> np.ndarray:
        """Class counts to predict from: own, or the nearest ancestor's.

        Bootstrap samples routinely produce nodes no (weighted) training
        record reached; an all-zero count row carries no signal, so the
        prediction falls back deterministically to the closest ancestor
        with a populated distribution.  Returns the node's own (all-zero)
        counts only when every ancestor is empty too.
        """
        node: Node | None = self
        while node is not None:
            if node.class_counts.sum() > 0:
                return node.class_counts
            node = node.parent
        return self.class_counts

    @property
    def majority_class(self) -> int:
        """Class predicted by this node when treated as a leaf.

        Empty nodes (all-zero ``class_counts``) defer to the parent
        distribution via :attr:`effective_counts` instead of silently
        predicting class 0.
        """
        return int(np.argmax(self.effective_counts))

    @property
    def gini(self) -> float:
        """Gini index of the node's class distribution."""
        return float(gini(self.class_counts))

    @property
    def errors(self) -> float:
        """Training records a leaf here would misclassify."""
        return self.n_records - float(self.class_counts[self.majority_class])

    def children(self) -> tuple["Node", "Node"]:
        """Both children; raises on leaves."""
        if self.left is None or self.right is None:
            raise ValueError(f"node {self.node_id} is a leaf")
        return self.left, self.right

    def make_leaf(self) -> None:
        """Prune the subtree below this node."""
        self.split = None
        self.left = None
        self.right = None


def _as_batch(X: np.ndarray) -> np.ndarray:
    """Coerce ``X`` to a float64 record batch.

    An empty batch may arrive as shape ``(0,)`` (e.g. a plain ``[]``);
    it is reshaped to ``(0, 1)`` so column indexing stays valid and the
    prediction paths return correctly shaped empty outputs.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim == 1 and len(X) == 0:
        return X.reshape(0, 1)
    return X


class DecisionTree:
    """A trained classifier: a root node plus the schema it was built on.

    ``predict`` / ``predict_proba`` / ``apply`` route whole batches through
    the compiled array form (:mod:`repro.core.compiled`), built lazily on
    first use and invalidated when the tree is pruned.  The object walker
    in :mod:`repro.verify.walker` is its reference; the two are
    bit-identical on every input.
    """

    def __init__(self, root: Node, schema: Schema) -> None:
        self.root = root
        self.schema = schema
        self._compiled = None
        self._compiled_nodes = -1
        # Wire parent back-pointers (iteratively: chain trees deeper than
        # the recursion limit must construct fine).  Builders attach
        # children without setting parents; the finished tree fixes them
        # up once so empty-leaf predictions can fall back up the path.
        stack = [root]
        while stack:
            node = stack.pop()
            if not node.is_leaf:
                node.left.parent = node  # type: ignore[union-attr]
                node.right.parent = node  # type: ignore[union-attr]
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]

    def compiled(self):
        """The tree's compiled form, rebuilt when the structure changed.

        The cache key is the node count: pruning (the only in-repo
        mutation of a finished tree) strictly shrinks the tree, so a
        stale cache can always be detected.  Code that mutates nodes
        without changing their count must call :meth:`invalidate_compiled`.
        """
        from repro.core.compiled import compile_tree

        n_nodes = self.n_nodes
        if self._compiled is None or self._compiled_nodes != n_nodes:
            self._compiled = compile_tree(self)
            self._compiled_nodes = n_nodes
        return self._compiled

    def invalidate_compiled(self) -> None:
        """Drop the compiled form (called by pruning after ``make_leaf``)."""
        self._compiled = None
        self._compiled_nodes = -1

    def iter_nodes(self) -> Iterator[Node]:
        """Pre-order traversal of all nodes."""
        stack = [self.root]
        while stack:
            node = stack.pop()
            yield node
            if not node.is_leaf:
                stack.append(node.right)  # type: ignore[arg-type]
                stack.append(node.left)  # type: ignore[arg-type]

    @property
    def n_nodes(self) -> int:
        """Total node count."""
        return sum(1 for _ in self.iter_nodes())

    @property
    def n_leaves(self) -> int:
        """Leaf count."""
        return sum(1 for n in self.iter_nodes() if n.is_leaf)

    @property
    def depth(self) -> int:
        """Depth of the deepest leaf (root = 0)."""
        return max(n.depth for n in self.iter_nodes())

    def apply(self, X: np.ndarray) -> np.ndarray:
        """Route records to leaves; returns the leaf ``node_id`` per record."""
        return self.compiled().apply(X)

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict a class label for each record."""
        return self.compiled().predict(X)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Per-class probabilities from the training-count distribution of
        each record's leaf; shape ``(n, n_classes)``."""
        return self.compiled().predict_proba(X)

    def render(self) -> str:
        """Multi-line text rendering of the tree (for examples and docs)."""
        lines: list[str] = []

        def walk(node: Node, prefix: str, tag: str) -> None:
            if node.is_leaf:
                label = self.schema.class_labels[node.majority_class]
                lines.append(
                    f"{prefix}{tag}leaf #{node.node_id}: {label} "
                    f"(n={node.n_records:g}, gini={node.gini:.4f})"
                )
                return
            lines.append(
                f"{prefix}{tag}node #{node.node_id}: "
                f"{node.split.describe(self.schema)} (n={node.n_records:g})"  # type: ignore[union-attr]
            )
            walk(node.left, prefix + "  ", "yes: ")  # type: ignore[arg-type]
            walk(node.right, prefix + "  ", "no:  ")  # type: ignore[arg-type]

        walk(self.root, "", "")
        return "\n".join(lines)


@dataclass
class TreeAccount:
    """Node-id allocator used by builders."""

    next_id: int = 0
    created: int = field(default=0)

    def new_node(self, depth: int, class_counts: np.ndarray) -> Node:
        """Allocate a node with a fresh id."""
        node = Node(self.next_id, depth, np.asarray(class_counts, dtype=np.float64))
        self.next_id += 1
        self.created += 1
        return node
