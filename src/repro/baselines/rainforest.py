"""RainForest RF-Hybrid (Gehrke, Ramakrishnan & Ganti, VLDB 1998).

RainForest observes that split selection only needs, per node, the
**AVC-group**: for every attribute, the counts of (attribute value, class)
pairs.  AVC-groups are usually far smaller than the node's data, so they
can be kept in main memory and exact splits computed from them in a single
scan per tree level.

RF-Hybrid works against a fixed-size AVC buffer (the paper's experiments
use 2.5 million entries, i.e. ``2.5M * sizeof(int) * c = 20 MB`` for two
classes).  When one scan cannot hold the AVC-groups of every frontier
node, the frontier is processed in batches that fit, one scan per batch
(the re-reads RF-Hybrid performs instead of materializing partitions).

This is the baseline the paper finds *slightly faster* than CMP — it does
exact splits with one scan per level and keeps everything in memory — but
at a memory cost an order of magnitude above CMP's (Figure 19).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.builder import TreeBuilder
from repro.core.impurity import boundary_impurities, get_criterion
from repro.core.histogram import CategoryHistogram
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk

#: Bytes per AVC entry per class (the paper's ``sizeof(int)``).
AVC_ENTRY_BYTES = 4


@dataclass
class _AvcSet:
    """AVC-set of one continuous attribute: counts per (distinct value, class)."""

    values: np.ndarray  # sorted distinct values
    counts: np.ndarray  # (k, c)

    @property
    def entries(self) -> int:
        return len(self.values)


@dataclass
class _NodeWork:
    """A frontier node whose AVC-group is built in the current batch."""

    node: Node
    slot: int
    #: raw column/label gatherings, chunk by chunk
    gathered_X: list[np.ndarray] = field(default_factory=list)
    gathered_y: list[np.ndarray] = field(default_factory=list)


@dataclass
class _Router:
    parent_slot: int
    split: Split
    left_slot: int
    right_slot: int


class RainForestBuilder(TreeBuilder):
    """The RainForest RF-Hybrid classifier."""

    name = "RainForest"

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        cfg = self.config
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        table = self._open_table(dataset, stats)
        account = TreeAccount()

        # RF-Hybrid reserves its AVC buffer for the whole build (Figure 19:
        # a flat 20 MB line for the paper's configuration).
        buffer_bytes = cfg.avc_buffer_entries * AVC_ENTRY_BYTES * c
        stats.memory.allocate("rainforest/avc_buffer", buffer_bytes)

        nid = np.zeros(n, dtype=np.int64)
        next_slot = iter(range(1, 2**62)).__next__

        # Root class counts come from the first AVC scan itself.
        root = account.new_node(0, np.zeros(c, dtype=np.float64))
        frontier: list[_NodeWork] = [_NodeWork(root, 0)]
        routers: list[_Router] = []

        while frontier:
            new_frontier: list[_NodeWork] = []
            pending_routers = routers
            routers = []
            for batch in self._batches(frontier, c):
                batch_slots = {w.slot: w for w in batch}
                for chunk in table.scan():
                    self._gather_chunk(chunk, nid, pending_routers, batch_slots)
                stats.io.count_nid_swap(n)
                # Routers must only run once per level; afterwards nids are
                # final and later batches match on the child slots directly.
                pending_routers = []
                for work in batch:
                    kids = self._process_node(work, nid, next_slot, account, schema, stats, routers)
                    new_frontier.extend(kids)
            frontier = new_frontier

        stats.memory.release("rainforest/avc_buffer")
        return DecisionTree(root, schema)

    # -- batching against the AVC buffer ---------------------------------------

    def _batches(self, frontier: list[_NodeWork], c: int) -> list[list[_NodeWork]]:
        """Split the frontier into groups whose AVC-groups fit the buffer.

        AVC sizes are only known after the scan, so RF-Hybrid plans with an
        upper bound: a node's AVC-group can never exceed ``n_node`` entries
        per attribute (every value distinct).
        """
        cfg = self.config
        capacity = cfg.avc_buffer_entries
        batches: list[list[_NodeWork]] = []
        current: list[_NodeWork] = []
        used = 0
        for work in frontier:
            n_node = max(int(work.node.n_records), 1)
            bound = n_node * self._n_attrs_bound(work)
            if current and used + bound > capacity:
                batches.append(current)
                current, used = [], 0
            current.append(work)
            used += bound
        if current:
            batches.append(current)
        return batches

    @staticmethod
    def _n_attrs_bound(work: _NodeWork) -> int:
        # The schema is not reachable from the work item; a constant factor
        # suffices for the batching heuristic.
        return 8

    # -- scan body ---------------------------------------------------------------

    def _gather_chunk(
        self,
        chunk: ScanChunk,
        nid: np.ndarray,
        routers: list[_Router],
        batch_slots: dict[int, _NodeWork],
    ) -> None:
        slots = nid[chunk.start : chunk.stop]
        for router in routers:
            mask = slots == router.parent_slot
            if not mask.any():
                continue
            left = router.split.goes_left(chunk.X[mask])
            rids = chunk.rids[mask]
            nid[rids[left]] = router.left_slot
            nid[rids[~left]] = router.right_slot
        slots = nid[chunk.start : chunk.stop]
        for slot, work in batch_slots.items():
            mask = slots == slot
            if mask.any():
                work.gathered_X.append(np.array(chunk.X[mask], copy=True))
                work.gathered_y.append(np.array(chunk.y[mask], copy=True))

    # -- per-node split from the AVC-group -----------------------------------------

    def _process_node(
        self,
        work: _NodeWork,
        nid: np.ndarray,
        next_slot,
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
        routers: list[_Router],
    ) -> list[_NodeWork]:
        cfg = self.config
        node = work.node
        if work.gathered_y:
            X = np.concatenate(work.gathered_X)
            y = np.concatenate(work.gathered_y)
        else:
            X = np.empty((0, schema.n_attributes))
            y = np.empty(0, dtype=np.int64)
        work.gathered_X.clear()
        work.gathered_y.clear()
        if node.depth == 0:
            node.class_counts = np.bincount(y, minlength=schema.n_classes).astype(
                np.float64
            )
        if (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
            or len(y) == 0
        ):
            return []

        criterion = get_criterion(cfg.criterion)
        best_gini = np.inf
        best_split: Split | None = None
        best_left: np.ndarray | None = None
        totals = node.class_counts
        for j, attr in enumerate(schema.attributes):
            if attr.is_continuous:
                avc = self._avc_set(X[:, j], y, schema.n_classes)
                if avc.entries < 2:
                    continue
                cum = np.cumsum(avc.counts, axis=0)[:-1]
                ginis = boundary_impurities(cum, totals, criterion)
                sizes = cum.sum(axis=1)
                valid = (sizes > 0) & (sizes < totals.sum())
                if not valid.any():
                    continue
                ginis = np.where(valid, ginis, np.inf)
                k = int(np.argmin(ginis))
                if ginis[k] < best_gini:
                    best_gini = float(ginis[k])
                    best_split = NumericSplit(
                        j, float(avc.values[k]), n_candidates=max(1, avc.entries - 1)
                    )
                    best_left = cum[k]
            else:
                hist = CategoryHistogram(attr.cardinality, schema.n_classes)
                hist.update(X[:, j], y)
                try:
                    mask, g = hist.best_subset_split(criterion)
                except ValueError:
                    continue
                if g < best_gini:
                    best_gini = float(g)
                    best_split = CategoricalSplit(j, tuple(bool(b) for b in mask))
                    best_left = hist.counts[np.asarray(mask, dtype=bool)].sum(axis=0)
        node_impurity = float(criterion(node.class_counts))
        if best_split is None or best_gini >= node_impurity - cfg.min_gain:
            return []

        assert best_left is not None
        right_counts = totals - best_left
        if best_left.sum() <= 0 or right_counts.sum() <= 0:
            return []
        node.split = best_split
        left = account.new_node(node.depth + 1, best_left)
        right = account.new_node(node.depth + 1, right_counts)
        node.left, node.right = left, right
        lslot, rslot = next_slot(), next_slot()
        routers.append(_Router(work.slot, best_split, lslot, rslot))
        kids = []
        for child, slot in ((left, lslot), (right, rslot)):
            if (
                child.n_records >= cfg.min_records
                and child.gini > cfg.min_gini
                and child.depth < cfg.max_depth
            ):
                kids.append(_NodeWork(child, slot))
        return kids

    @staticmethod
    def _avc_set(col: np.ndarray, y: np.ndarray, n_classes: int) -> _AvcSet:
        values, inverse = np.unique(col, return_inverse=True)
        counts = np.zeros((len(values), n_classes), dtype=np.float64)
        np.add.at(counts, (inverse, y), 1.0)
        return _AvcSet(values, counts)
