"""SLIQ (Mehta, Agrawal & Rissanen, EDBT 1996) — extension baseline.

SLIQ is SPRINT's predecessor and the other "exact approach" the paper
names (§1.1: "decision trees built by an approximate approach can carry a
significant loss of accuracy in comparison with trees built by an exact
approach like SLIQ and SPRINT").  It presorts each continuous attribute
once into a disk-resident attribute list of ``(value, rid)`` entries and
keeps a single **class list** — ``rid -> (class, current leaf)`` — pinned
in main memory.

Per tree level, every attribute list is scanned exactly once; each entry
is routed to its record's current leaf via the class list, so the exact
best split of *every* frontier leaf is found simultaneously.  Unlike
SPRINT, the attribute lists are never partitioned or rewritten — the class
list absorbs all bookkeeping — so SLIQ's per-level I/O is one read of the
lists (SPRINT pays a read *and* a rewrite).  The price is the in-memory
class list, which is what limits SLIQ's scalability and motivated SPRINT.

Cost accounting: one dataset scan plus ``n x p`` auxiliary writes for list
creation; one auxiliary read of every list per level; memory charged for
the class list (12 bytes per record: class byte padded + leaf id) plus
per-leaf histograms.
"""

from __future__ import annotations

import numpy as np

from repro.core.builder import TreeBuilder
from repro.core.impurity import best_threshold_sorted, get_criterion
from repro.core.histogram import CategoryHistogram
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.io.metrics import BuildStats

#: Bytes per class-list entry (class label + leaf pointer).
CLASS_LIST_ENTRY_BYTES = 12


class SliqBuilder(TreeBuilder):
    """The SLIQ exact classifier (extension; not in the paper's figures)."""

    name = "SLIQ"

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        cfg = self.config
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        p = schema.n_attributes
        table = self._open_table(dataset, stats)
        account = TreeAccount()

        # --- Presort pass: one scan + attribute-list creation. ------------
        X, y = self._read_table(table)
        stats.io.count_aux_write(n * p)

        cont = set(schema.continuous_indices())
        # Attribute lists: (sorted values, rids) for continuous attributes;
        # categorical columns stay unsorted.
        lists: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for j in range(p):
            if j in cont:
                order = np.argsort(X[:, j], kind="stable")
                lists[j] = (X[order, j], order.astype(np.int64))
            else:
                lists[j] = (X[:, j], np.arange(n, dtype=np.int64))

        # The in-memory class list: rid -> current leaf node.
        stats.memory.allocate("sliq/class_list", CLASS_LIST_ENTRY_BYTES * n)
        leaf_of = np.zeros(n, dtype=np.int64)

        root = account.new_node(0, np.bincount(y, minlength=c).astype(np.float64))
        frontier: dict[int, Node] = {0: root}
        next_leaf = 1

        while frontier:
            stats.io.count_aux_read(n * len(lists))  # one pass over each list
            growable = {
                lid: node
                for lid, node in frontier.items()
                if self._worth_splitting(node)
            }
            if not growable:
                break
            splits = self._best_splits(growable, lists, leaf_of, y, schema)
            criterion = get_criterion(cfg.criterion)

            new_frontier: dict[int, Node] = {}
            for lid, node in growable.items():
                found = splits.get(lid)
                if found is None:
                    continue
                split, gini_value = found
                if gini_value >= float(criterion(node.class_counts)) - cfg.min_gain:
                    continue
                member = leaf_of == lid
                goes_left = np.zeros(n, dtype=bool)
                goes_left[member] = split.goes_left(X[member])
                left_counts = np.bincount(y[member & goes_left], minlength=c)
                right_counts = np.bincount(y[member & ~goes_left], minlength=c)
                if left_counts.sum() == 0 or right_counts.sum() == 0:
                    continue
                node.split = split
                left = account.new_node(node.depth + 1, left_counts.astype(float))
                right = account.new_node(node.depth + 1, right_counts.astype(float))
                node.left, node.right = left, right
                lid_l, lid_r = next_leaf, next_leaf + 1
                next_leaf += 2
                # Class-list update (in memory).
                leaf_of[member & goes_left] = lid_l
                leaf_of[member & ~goes_left] = lid_r
                new_frontier[lid_l] = left
                new_frontier[lid_r] = right
            frontier = new_frontier

        stats.memory.release("sliq/class_list")
        return DecisionTree(root, schema)

    def _worth_splitting(self, node: Node) -> bool:
        cfg = self.config
        return (
            node.n_records >= cfg.min_records
            and node.gini > cfg.min_gini
            and node.depth < cfg.max_depth
        )

    def _best_splits(
        self,
        growable: dict[int, Node],
        lists: dict[int, tuple[np.ndarray, np.ndarray]],
        leaf_of: np.ndarray,
        y: np.ndarray,
        schema: Schema,
    ) -> dict[int, tuple[Split, float]]:
        """One simultaneous pass over every attribute list (SLIQ's core)."""
        best: dict[int, tuple[Split, float]] = {}
        n_classes = schema.n_classes
        criterion = get_criterion(self.config.criterion)
        for j, (values, rids) in lists.items():
            entry_leaf = leaf_of[rids]
            entry_label = y[rids]
            if schema.attributes[j].is_continuous:
                for lid in growable:
                    sel = entry_leaf == lid
                    if not sel.any():
                        continue
                    try:
                        thr, g = best_threshold_sorted(
                            values[sel], entry_label[sel], n_classes, criterion
                        )
                    except ValueError:
                        continue
                    if lid not in best or g < best[lid][1]:
                        v = values[sel]  # sorted subset of a sorted list
                        n_cand = max(1, int(np.count_nonzero(v[:-1] < v[1:])))
                        best[lid] = (NumericSplit(j, thr, n_candidates=n_cand), g)
            else:
                for lid in growable:
                    sel = entry_leaf == lid
                    if not sel.any():
                        continue
                    hist = CategoryHistogram(
                        schema.attributes[j].cardinality, n_classes
                    )
                    hist.update(values[sel], entry_label[sel])
                    try:
                        mask, g = hist.best_subset_split(criterion)
                    except ValueError:
                        continue
                    if lid not in best or g < best[lid][1]:
                        best[lid] = (
                            CategoricalSplit(j, tuple(bool(b) for b in mask)),
                            g,
                        )
        return best
