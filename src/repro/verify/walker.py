"""The object walker: the reference implementation of tree prediction.

These functions route records node by node through a
:class:`~repro.core.tree.DecisionTree`'s object graph.  The compiled
engine (:mod:`repro.core.compiled`), which every ``predict`` call uses,
is asserted bit-identical to them; they remain its executable
specification and the speed baseline of ``cmp-repro serve-bench`` and
``benchmarks/bench_predict.py``.
"""

from __future__ import annotations

import numpy as np

from repro.core.splits import CategoricalSplit
from repro.core.tree import DecisionTree, Node, _as_batch


def walk_apply(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Object-walker ``apply``: leaf ``node_id`` per record."""
    X = _as_batch(X)
    out = np.empty(len(X), dtype=np.int64)
    _route(tree.root, X, np.arange(len(X)), out)
    return out


def walk_predict(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Object-walker ``predict``: class label per record."""
    X = _as_batch(X)
    out = np.empty(len(X), dtype=np.int64)
    _route(tree.root, X, np.arange(len(X)), out, predict=True)
    return out


def walk_predict_proba(tree: DecisionTree, X: np.ndarray) -> np.ndarray:
    """Object-walker ``predict_proba``: one gather from a per-leaf table."""
    leaf_ids = walk_apply(tree, X)
    leaves = [n for n in tree.iter_nodes() if n.is_leaf]
    table = np.empty((len(leaves), tree.schema.n_classes), dtype=np.float64)
    lookup = np.zeros(max(n.node_id for n in leaves) + 1, dtype=np.intp)
    for row, node in enumerate(leaves):
        counts = node.effective_counts
        total = counts.sum()
        table[row] = (
            counts / total
            if total > 0
            else np.full_like(counts, 1.0 / len(counts))
        )
        lookup[node.node_id] = row
    return table[lookup[leaf_ids]]


def _route(
    node: Node,
    X: np.ndarray,
    idx: np.ndarray,
    out: np.ndarray,
    predict: bool = False,
) -> None:
    # Iterative with an explicit stack: a chain tree deeper than
    # Python's recursion limit (~1000) must still predict correctly.
    stack = [(node, idx)]
    while stack:
        node, idx = stack.pop()
        if len(idx) == 0:
            continue
        if node.is_leaf:
            out[idx] = node.majority_class if predict else node.node_id
            continue
        split = node.split
        if isinstance(split, CategoricalSplit):
            # Category codes unseen at training time follow the child
            # that absorbed more training records (ties go left).
            heavier_left = node.left.n_records >= node.right.n_records  # type: ignore[union-attr]
            goes_left = split.goes_left(X[idx], unseen_left=heavier_left)
        else:
            goes_left = split.goes_left(X[idx])  # type: ignore[union-attr]
        stack.append((node.right, idx[~goes_left]))  # type: ignore[arg-type]
        stack.append((node.left, idx[goes_left]))  # type: ignore[arg-type]


__all__ = ["walk_apply", "walk_predict", "walk_predict_proba"]
