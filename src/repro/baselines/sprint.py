"""SPRINT (Shafer, Agrawal & Mehta, VLDB 1996) — the exact baseline.

SPRINT presorts every continuous attribute once into a disk-resident
*attribute list* of ``(value, class, rid)`` entries.  At each node it scans
the node's portion of every attribute list, evaluating the gini index at
every distinct value — the exact best split.  Partitioning a node moves
each attribute-list entry to the winning child after probing a hash table
(rid -> side) built from the split attribute's list; sorted order is
preserved because entries move in presorted order.

Cost accounting (DESIGN.md §3):

* one scan of the training set (list creation) plus ``n x p`` auxiliary
  record writes for the initial sort;
* per level: one auxiliary read of every active list (split evaluation),
  then one read + one write of every active list (partitioning);
* memory: the rid hash table, proportional to the size of the node being
  partitioned — the paper's Figure 19 curve.

This heavy attribute-list traffic is exactly what CMP's histograms avoid,
and is why the paper reports CMP "nearly five times faster" than SPRINT.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.builder import TreeBuilder
from repro.core.impurity import best_threshold_sorted, get_criterion
from repro.core.histogram import CategoryHistogram
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.io.metrics import BuildStats


@dataclass
class _AttrList:
    """One node's slice of a (presorted) attribute list."""

    values: np.ndarray
    labels: np.ndarray
    rids: np.ndarray

    def __len__(self) -> int:
        return len(self.values)


class SprintBuilder(TreeBuilder):
    """The SPRINT exact classifier."""

    name = "SPRINT"

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        cfg = self.config
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        p = schema.n_attributes
        table = self._open_table(dataset, stats)
        account = TreeAccount()

        # --- Presort pass: one scan + attribute-list creation. ------------
        X, y = self._read_table(table)
        stats.io.count_aux_write(n * p)  # writing the attribute lists

        cont = set(schema.continuous_indices())
        root_lists: dict[int, _AttrList] = {}
        rids = np.arange(n, dtype=np.int64)
        for j in range(p):
            if j in cont:
                order = np.argsort(X[:, j], kind="stable")
                root_lists[j] = _AttrList(X[order, j], y[order], rids[order])
            else:
                root_lists[j] = _AttrList(X[:, j].astype(np.intp), y, rids)

        totals = np.bincount(y, minlength=c).astype(np.float64)
        root = account.new_node(0, totals)

        # --- Breadth-first exact growth. -----------------------------------
        frontier: list[tuple[Node, dict[int, _AttrList]]] = [(root, root_lists)]
        while frontier:
            next_frontier: list[tuple[Node, dict[int, _AttrList]]] = []
            for node, lists in frontier:
                split = self._best_split(node, lists, schema, stats)
                if split is None:
                    continue
                children = self._partition(node, lists, split, account, schema, stats)
                next_frontier.extend(children)
            frontier = next_frontier

        return DecisionTree(root, schema)

    # -- split selection -------------------------------------------------------

    def _best_split(
        self,
        node: Node,
        lists: dict[int, _AttrList],
        schema: Schema,
        stats: BuildStats,
    ) -> Split | None:
        cfg = self.config
        if (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
        ):
            return None
        n_node = int(node.n_records)
        stats.io.count_aux_read(n_node * len(lists))  # read every list
        criterion = get_criterion(self.config.criterion)
        best_gini = np.inf
        best: Split | None = None
        for j, alist in lists.items():
            if schema.attributes[j].is_continuous:
                try:
                    thr, g = best_threshold_sorted(
                        alist.values, alist.labels, schema.n_classes, criterion
                    )
                except ValueError:
                    continue
                if g < best_gini:
                    # Candidate thresholds = boundaries between distinct
                    # values of the (sorted) attribute list — the MDL
                    # split-encoding value term.
                    v = alist.values
                    n_cand = max(1, int(np.count_nonzero(v[:-1] < v[1:])))
                    best_gini, best = g, NumericSplit(j, thr, n_candidates=n_cand)
            else:
                hist = CategoryHistogram(
                    schema.attributes[j].cardinality, schema.n_classes
                )
                hist.update(alist.values, alist.labels)
                try:
                    mask, g = hist.best_subset_split(criterion)
                except ValueError:
                    continue
                if g < best_gini:
                    best_gini, best = g, CategoricalSplit(j, tuple(bool(b) for b in mask))
        node_impurity = float(criterion(node.class_counts))
        if best is None or best_gini >= node_impurity - cfg.min_gain:
            return None
        return best

    # -- partitioning ------------------------------------------------------------

    def _partition(
        self,
        node: Node,
        lists: dict[int, _AttrList],
        split: Split,
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[tuple[Node, dict[int, _AttrList]]]:
        n_node = int(node.n_records)
        # Build the rid hash table from the split attribute's list.
        attr = split.attributes()[0]
        alist = lists[attr]
        if isinstance(split, NumericSplit):
            left_entry = alist.values <= split.threshold
        else:
            mask = np.asarray(split.left_mask, dtype=bool)  # type: ignore[union-attr]
            left_entry = mask[alist.values.astype(np.intp)]
        left_rids = alist.rids[left_entry]
        if len(left_rids) == 0 or len(left_rids) == n_node:
            return []  # degenerate split; keep as leaf
        hash_table = np.zeros(int(alist.rids.max()) + 1, dtype=bool)
        hash_table[left_rids] = True
        stats.memory.allocate("sprint/hash", 8 * n_node)

        # Probe and move every attribute list (read + write each entry).
        stats.io.count_aux_read(n_node * len(lists))
        stats.io.count_aux_write(n_node * len(lists))
        left_lists: dict[int, _AttrList] = {}
        right_lists: dict[int, _AttrList] = {}
        for j, jl in lists.items():
            goes_left = hash_table[jl.rids]
            left_lists[j] = _AttrList(jl.values[goes_left], jl.labels[goes_left], jl.rids[goes_left])
            right_lists[j] = _AttrList(jl.values[~goes_left], jl.labels[~goes_left], jl.rids[~goes_left])
        left_counts = np.bincount(
            left_lists[attr].labels, minlength=schema.n_classes
        ).astype(np.float64)
        right_counts = np.bincount(
            right_lists[attr].labels, minlength=schema.n_classes
        ).astype(np.float64)
        stats.memory.release("sprint/hash")

        node.split = split
        left = account.new_node(node.depth + 1, left_counts)
        right = account.new_node(node.depth + 1, right_counts)
        node.left, node.right = left, right
        return [(left, left_lists), (right, right_lists)]
