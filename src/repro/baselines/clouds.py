"""CLOUDS (Alsabti, Ranka & Singh, KDD 1998) — the interval baseline.

CLOUDS discretizes each continuous attribute into equal-depth intervals and
evaluates the gini index only at interval boundaries.  Two modes, both from
the original paper and both implemented here:

* **SS** ("sampling the splitting points"): split at the best boundary —
  one scan per level, but the split point is approximate.
* **SSE** ("sampling the splitting points with estimation"): estimate a
  gini lower bound inside every interval (the hill climb of
  :mod:`repro.core.estimation`), keep the intervals that might beat the
  best boundary (*alive*), then make a **second full scan** to evaluate
  the gini at every distinct point inside the alive intervals and split
  exactly.

That second scan is precisely what CMP-S eliminates by buffering the alive
records during the *next* level's scan, so CLOUDS-SSE costs roughly two
scans per level against CMP-S's one — the "up to 50%" disk-access saving
claimed in §2.  Unlike CMP-S, CLOUDS never needs preliminary subnodes: the
exact split is known before any record is routed to a child, at the price
of the extra pass.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.core.builder import (
    PartState,
    TreeBuilder,
    adaptive_intervals,
    best_cut,
    make_part_hists,
    prefix_cuts,
)
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.intervals import AttributeAnalysis, analyze_attributes
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import edges_from_histogram
from repro.data.schema import Schema
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk

Hists = dict[int, ClassHistogram | CategoryHistogram]

_EPS = 1e-12


@dataclass
class _GrowTask:
    """A node whose histograms are built during the next histogram scan."""

    node: Node
    slot: int
    part: PartState
    child_edges: dict[int, np.ndarray]


@dataclass
class _Router:
    """A resolved split routing records from a parent slot to its children."""

    parent_slot: int
    split: Split
    left_slot: int
    right_slot: int
    left_task: _GrowTask | None
    right_task: _GrowTask | None


@dataclass
class _AliveProbe:
    """One alive interval awaiting the exact pass."""

    attr: int
    lo: float
    hi: float
    cum_below: np.ndarray
    values: list[np.ndarray] = field(default_factory=list)
    labels: list[np.ndarray] = field(default_factory=list)


@dataclass
class _ExactPending:
    """A node whose exact split waits for the SSE second pass.

    ``fallback_*`` describe the best split known exactly at decision time
    (a boundary or categorical split); the probes must beat its gini.
    """

    node: Node
    slot: int
    totals: np.ndarray
    probes: list[_AliveProbe]
    fallback_split: Split | None
    fallback_gini: float
    fallback_left_counts: np.ndarray
    child_edges: dict[int, np.ndarray]


class CloudsBuilder(TreeBuilder):
    """The CLOUDS classifier (modes "ss" and "sse")."""

    name = "CLOUDS"

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        cfg = self.config
        if cfg.criterion != "gini":
            raise ValueError(f"{self.name} supports only the gini criterion")
        schema = dataset.schema
        n, c = dataset.n_records, dataset.n_classes
        table = self._open_table(dataset, stats)
        account = TreeAccount()
        rng = np.random.default_rng(cfg.seed)

        # --- Quantiling pass: root interval grid (charged as in CMP). ------
        [(totals, root_edges)] = self._quantile_scan(table, schema, [(None, rng)])

        nid = np.zeros(n, dtype=np.int64)
        next_slot = iter(range(1, 2**62)).__next__
        root = account.new_node(0, totals)
        root_task = _GrowTask(
            root, 0, PartState(0, c, make_part_hists(schema, root_edges)), root_edges
        )

        routers: list[_Router] = []
        tasks: list[_GrowTask] = [root_task]
        first_scan = True
        while tasks:
            # --- Histogram scan: route through routers, fill task hists. ---
            for t in tasks:
                stats.memory.allocate(f"hist/{t.node.node_id}", t.part.nbytes())
            for chunk in table.scan():
                self._histogram_chunk(chunk, nid, routers, root_task if first_scan else None)
            stats.io.count_nid_swap(n)
            routers = []
            first_scan = False

            # --- Decide splits; collect SSE pendings. -----------------------
            pendings: list[_ExactPending] = []
            new_tasks: list[_GrowTask] = []
            for t in tasks:
                outcome = self._decide(t, next_slot, account, schema)
                stats.memory.release(f"hist/{t.node.node_id}")
                if outcome is None:
                    continue
                if isinstance(outcome, _ExactPending):
                    pendings.append(outcome)
                else:
                    router, kids = outcome
                    routers.append(router)
                    new_tasks.extend(kids)

            # --- SSE exact pass over the alive intervals. -------------------
            if pendings:
                pending_by_slot = {p.slot: p for p in pendings}
                for chunk in table.scan():
                    self._probe_chunk(chunk, nid, pending_by_slot)
                stats.io.count_nid_swap(n)
                for p in pendings:
                    stats.memory.allocate(
                        f"probe/{p.node.node_id}",
                        sum(2 * v.nbytes for pr in p.probes for v in pr.values),
                    )
                    outcome = self._finish_pending(p, next_slot, account, schema, stats)
                    stats.memory.release(f"probe/{p.node.node_id}")
                    if outcome is not None:
                        router, kids = outcome
                        routers.append(router)
                        new_tasks.extend(kids)
            tasks = new_tasks

        return DecisionTree(root, schema)

    # -- scan bodies -------------------------------------------------------------

    def _histogram_chunk(
        self,
        chunk: ScanChunk,
        nid: np.ndarray,
        routers: list[_Router],
        root_task: _GrowTask | None,
    ) -> None:
        slots = nid[chunk.start : chunk.stop]
        if root_task is not None:
            root_task.part.update(chunk.X, chunk.y)
            return
        for router in routers:
            mask = slots == router.parent_slot
            if not mask.any():
                continue
            X = chunk.X[mask]
            y = chunk.y[mask]
            rids = chunk.rids[mask]
            left = router.split.goes_left(X)
            nid[rids[left]] = router.left_slot
            nid[rids[~left]] = router.right_slot
            if router.left_task is not None and left.any():
                router.left_task.part.update(X[left], y[left])
            if router.right_task is not None and (~left).any():
                router.right_task.part.update(X[~left], y[~left])

    def _probe_chunk(
        self,
        chunk: ScanChunk,
        nid: np.ndarray,
        pending_by_slot: dict[int, _ExactPending],
    ) -> None:
        slots = nid[chunk.start : chunk.stop]
        for slot, p in pending_by_slot.items():
            mask = slots == slot
            if not mask.any():
                continue
            X = chunk.X[mask]
            y = chunk.y[mask]
            for probe in p.probes:
                v = X[:, probe.attr]
                inside = (v > probe.lo) & (v <= probe.hi)
                if inside.any():
                    probe.values.append(np.array(v[inside], copy=True))
                    probe.labels.append(np.array(y[inside], copy=True))

    # -- decisions -----------------------------------------------------------------

    def _decide(
        self,
        task: _GrowTask,
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
    ) -> "tuple[_Router, list[_GrowTask]] | _ExactPending | None":
        cfg = self.config
        node = task.node
        hists = task.part.hists
        if (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
        ):
            return None
        cont = schema.continuous_indices()
        analyses = analyze_attributes(
            [(j, hists[j]) for j in cont], self.tracer  # type: ignore[arg-type]
        )

        # Exact candidates available right now: boundaries & subset splits.
        best_cat_gini = np.inf
        best_cat: tuple[int, np.ndarray] | None = None
        for j in schema.categorical_indices():
            hist = hists[j]
            assert isinstance(hist, CategoryHistogram)
            try:
                mask, g = hist.best_subset_split()
            except ValueError:
                continue
            if g < best_cat_gini:
                best_cat_gini, best_cat = g, (j, mask)

        boundary_best: AttributeAnalysis | None = None
        for a in analyses:
            if a.has_boundaries and (
                boundary_best is None or a.gini_min < boundary_best.gini_min
            ):
                boundary_best = a
        gini_min = boundary_best.gini_min if boundary_best is not None else np.inf

        fallback_split: Split | None = None
        fallback_gini = np.inf
        fallback_left = np.zeros(schema.n_classes, dtype=np.float64)
        if best_cat is not None and best_cat_gini < gini_min:
            j, mask = best_cat
            fallback_split = CategoricalSplit(j, tuple(bool(b) for b in mask))
            fallback_gini = best_cat_gini
            cat_hist = hists[j]
            assert isinstance(cat_hist, CategoryHistogram)
            fallback_left = cat_hist.counts[np.asarray(mask, dtype=bool)].sum(axis=0)
        elif boundary_best is not None:
            a = boundary_best
            hist = hists[a.attr]
            assert isinstance(hist, ClassHistogram)
            fallback_split = NumericSplit(
                a.attr,
                float(a.edges[a.best_boundary]),
                n_candidates=max(1, len(a.edges)),
            )
            fallback_gini = a.gini_min
            fallback_left = hist.cumulative()[a.best_boundary]

        q_child = adaptive_intervals(cfg.n_intervals, node.n_records)
        child_edges = {
            j: edges_from_histogram(
                hists[j].edges,  # type: ignore[union-attr]
                hists[j].counts.sum(axis=1),
                q_child,
                hists[j].vmin,  # type: ignore[union-attr]
                hists[j].vmax,  # type: ignore[union-attr]
            )
            for j in cont
        }

        if cfg.clouds_mode == "ss":
            if fallback_split is None or fallback_gini >= node.gini - cfg.min_gain:
                return None
            return self._make_children(
                node, task.slot, fallback_split, fallback_left, child_edges,
                next_slot, account, schema,
            )

        # SSE: alive intervals across all attributes vs the best exact split.
        probes: list[_AliveProbe] = []
        for a in analyses:
            hist = hists[a.attr]
            assert isinstance(hist, ClassHistogram)
            q = hist.n_intervals
            for i in np.nonzero(a.est < fallback_gini - _EPS)[0]:
                lo = -np.inf if i == 0 else float(hist.edges[i - 1])
                hi = np.inf if i == q - 1 else float(hist.edges[i])
                probes.append(_AliveProbe(a.attr, lo, hi, hist.cum_below(int(i))))

        best_possible = min(fallback_gini, min((a.est_min for a in analyses), default=np.inf))
        if best_possible >= node.gini - cfg.min_gain:
            return None
        if not probes:
            if fallback_split is None or fallback_gini >= node.gini - cfg.min_gain:
                return None
            return self._make_children(
                node, task.slot, fallback_split, fallback_left, child_edges,
                next_slot, account, schema,
            )
        return _ExactPending(
            node=node,
            slot=task.slot,
            totals=node.class_counts,
            probes=probes,
            fallback_split=fallback_split,
            fallback_gini=fallback_gini,
            fallback_left_counts=fallback_left,
            child_edges=child_edges,
        )

    def _finish_pending(
        self,
        p: _ExactPending,
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> tuple[_Router, list[_GrowTask]] | None:
        cfg = self.config
        node = p.node
        totals = np.asarray(p.totals, dtype=np.float64)
        best_gini = p.fallback_gini
        best_split = p.fallback_split
        best_left = p.fallback_left_counts
        improved = False
        for probe in p.probes:
            if not probe.values:
                continue
            thresholds, left = prefix_cuts(
                np.concatenate(probe.values),
                np.concatenate(probe.labels),
                probe.cum_below,
                schema.n_classes,
            )
            best = best_cut(left, totals)
            if best is None:
                continue
            k, g = best
            if g < best_gini - _EPS:
                best_gini = g
                best_split = NumericSplit(
                    probe.attr, float(thresholds[k]), n_candidates=len(thresholds)
                )
                best_left = left[k]
                improved = True
        if best_split is None or not np.isfinite(best_gini):
            return None
        if best_gini >= node.gini - cfg.min_gain:
            return None
        if improved:
            stats.splits_resolved_exactly += 1
        return self._make_children(
            node, p.slot, best_split, best_left, p.child_edges, next_slot, account, schema
        )

    def _make_children(
        self,
        node: Node,
        slot: int,
        split: Split,
        left_counts: np.ndarray,
        child_edges: dict[int, np.ndarray],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
    ) -> tuple[_Router, list[_GrowTask]] | None:
        left_counts = np.asarray(left_counts, dtype=np.float64)
        right_counts = node.class_counts - left_counts
        if left_counts.sum() <= 0 or right_counts.sum() <= 0:
            return None
        node.split = split
        left = account.new_node(node.depth + 1, left_counts)
        right = account.new_node(node.depth + 1, right_counts)
        node.left, node.right = left, right
        lslot, rslot = next_slot(), next_slot()
        kids: list[_GrowTask] = []
        left_task = right_task = None
        if self._worth_growing(left):
            left_task = _GrowTask(
                left,
                lslot,
                PartState(lslot, schema.n_classes, make_part_hists(schema, child_edges)),
                child_edges,
            )
            kids.append(left_task)
        if self._worth_growing(right):
            right_task = _GrowTask(
                right,
                rslot,
                PartState(rslot, schema.n_classes, make_part_hists(schema, child_edges)),
                child_edges,
            )
            kids.append(right_task)
        router = _Router(
            parent_slot=slot,
            split=split,
            left_slot=lslot,
            right_slot=rslot,
            left_task=left_task,
            right_task=right_task,
        )
        return router, kids

    def _worth_growing(self, node: Node) -> bool:
        cfg = self.config
        return (
            node.n_records >= cfg.min_records
            and node.gini > cfg.min_gini
            and node.depth < cfg.max_depth
        )
