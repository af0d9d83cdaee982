"""CMP-B: bivariate CMP with split prediction (§2.2, Figure 10).

CMP-B replaces CMP-S's per-attribute histograms with the
:class:`~repro.core.matrix.MatrixSet` of bivariate histograms sharing a
predicted X axis.  The payoff (Figure 6): when a node's split lands on the
X axis **and** has at most one alive interval, the two subnodes' histograms
are sub-matrices of the parent's — so a *second* split can be chosen for
each subnode immediately, and the tree grows two levels in a single scan.
The paper measures CMP-B "almost 40% faster than CMP-S" from this.

Mechanics on top of CMP-S:

* **Prediction** (Figure 7, :mod:`repro.core.predict`): each subnode's
  matrix X axis is the attribute most likely to win its future split —
  exact marginal ginis from sub-matrices where available, parent-level
  ginis otherwise.  Success is tracked in ``BuildStats.predictions_*``
  (the paper reports ~80% on Function 2).
* **Two-level pendings**: a first (possibly estimated) split on the X axis
  with per-side second splits, each with its own alive interval, buffer
  and preliminary parts — the cross-shaped buffering of Figure 8.  Both
  levels resolve exactly from buffered records during the next scan.
* Second splits are chosen from the side sub-matrices only (categorical
  attributes have no per-side histograms, so they compete only for first
  splits), and their alive intervals are capped at one, which keeps every
  preliminary part attributable to a unique grandchild.
* When the first split lands on a Y axis, on a categorical attribute, or
  has two or more alive intervals, the pending degrades gracefully to the
  CMP-S single-level behaviour (with matrices instead of histograms).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Generator

import numpy as np

from repro.core.builder import (
    Decision,
    LevelBuilder,
    PartState,
    PendingScan,
    PendingSplit,
    adaptive_intervals,
    alive_run_bounds,
    boundary_split,
    classify_zones,
    estimated_fields,
    resolve_exact_threshold,
    zone_boundaries,
)
from repro.core.gini import best_cut, gini, prefix_cuts
from repro.core.histogram import CategoryHistogram, ClassHistogram, SubsetSplit
# ``analyze_attribute`` and ``edges_from_histogram`` stay bound here for
# tools that patch them by name.
from repro.core.intervals import (
    AttributeAnalysis,
    analyze_attribute,
    choose_split_attribute,
    select_alive_intervals,
)
from repro.core.matrix import MatrixSet
from repro.core.predict import predict_split
from repro.core.splits import CategoricalSplit, LinearSplit, NumericSplit, Split
from repro.core.tree import Node, TreeAccount
from repro.core.cmp_s import (
    best_categorical_split,
    continuous_analyses,
    merge_contiguous,
)
from repro.data.dataset import Dataset
from repro.data.discretize import edges_from_histogram, edges_from_histograms
from repro.data.schema import Schema
from repro.io.metrics import BuildStats


@dataclass
class BPending(PendingSplit):
    """A CMP-B pending split (single- or two-level, or linear).

    A single-level pending is a :class:`PendingSplit` over matrix parts
    (a :class:`PartState` with a :class:`MatrixSet`).  A two-level
    pending has no parts of its own: its inherited fields carry the
    first split, exact (``exact_split``) or estimated around one alive
    run, and ``sides`` hold one pending per side.  A side is the side's second split (Figure 10, line 18) over
    two parts, exact or estimated around one alive run, or a one-part
    pending with no alive bounds when the side does not split again,
    which routes all its records to that part.  A side's node is its
    child, made when the side resolves; its ``parent_slot`` is its first
    part's, which a failed second split folds into.
    """

    sides: list[PendingSplit] = field(default_factory=list)
    # --- linear path (full CMP): a projection band instead of an attribute --
    linear: "LinearSplit | None" = None

    @property
    def two_level(self) -> bool:
        """True when the pending grows two levels (it has sides)."""
        return bool(self.sides)

    def with_sides(self) -> list[PendingSplit]:
        """This pending and its sides."""
        return [self, *self.sides]

    def split_values(self, X: np.ndarray) -> np.ndarray:
        """Attribute values, or the linear split's projection."""
        return self.linear.project(X) if self.linear is not None else X[:, self.attr]

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        nid: np.ndarray,
        weights: np.ndarray | None = None,
        delta: PendingScan | None = None,
    ) -> None:
        """Route this node's records; two-level pendings route per side."""
        if not self.two_level:
            super().route(X, y, rids, nid, weights, delta)
            return
        if self.exact_split is not None:
            left = self.exact_split.goes_left(X)
            masks = (left, ~left)
        else:
            zones = classify_zones(X[:, self.attr], self.zone_bounds)
            buffered = zones == 1
            if buffered.any():
                (self.buffer if delta is None else delta.buffer(self)).append(
                    X[buffered], y[buffered], rids[buffered]
                )
            masks = (zones == 0, zones == 2)
        for side, m in zip(self.sides, masks):
            if m.any():
                side.route(X[m], y[m], rids[m], nid, None, delta)


DecideItem = tuple[Node, PartState]


class CMPBBuilder(LevelBuilder):
    """The CMP-B classifier."""

    name = "CMP-B"

    #: Alive-interval cap for second-level splits (Figure 8 uses one).
    SECOND_MAX_ALIVE = 1

    def _validate(self, dataset: Dataset) -> None:
        super()._validate(dataset)
        if self.config.buffer_budget_bytes:
            raise ValueError(
                f"{self.name} does not support buffer_budget_bytes: its "
                "two-level and linear buffers have no overflow rescan"
            )
        if len(dataset.schema.continuous_indices()) < 2:
            raise ValueError("CMP-B needs at least two continuous attributes")

    def _root_part(
        self,
        schema: Schema,
        root_edges: dict[int, np.ndarray],
        rng: np.random.Generator,
    ) -> PartState:
        """Root matrices (Figure 10, line 03) on a random X axis (§2.2)."""
        cont = schema.continuous_indices()
        root_x = int(cont[rng.integers(0, len(cont))])
        return PartState.planned(0, schema, root_edges, root_x)

    # ------------------------------------------------------------------ decide

    def _collect(
        self, node: Node, part: PartState
    ) -> list[tuple[int, ClassHistogram | CategoryHistogram]]:
        """The X marginal, every Y marginal, then every categorical
        histogram, unless the node stops.  The marginals stay on the part
        for :meth:`_decide`."""
        if self._stops(node):
            return []
        mset = part.mset
        part.marginals = {mset.x_attr: mset.x_marginal()}
        for j in mset.matrices:
            part.marginals[j] = mset.y_marginal(j)
        return list(part.marginals.items()) + list(mset.categorical.items())

    def _decide(
        self,
        node: Node,
        part: PartState,
        answers: list[AttributeAnalysis | SubsetSplit],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> Decision:
        cfg = self.config
        slot, mset = part.slot, part.mset
        if self._stops(node):
            return None
        node_hists, part.marginals = part.marginals, None
        assert node_hists is not None
        analyses = continuous_analyses(answers)
        x_analysis = analyses[0]
        winner = choose_split_attribute(analyses, cfg.max_alive)
        if (
            winner is not None
            and winner.attr != mset.x_attr
            and x_analysis.splittable
            and x_analysis.score
            <= winner.score + cfg.x_tie_margin * max(node.gini, 0.0)
        ):
            # Near-tie: prefer the X axis — it is the split that lets both
            # subnodes split again without a scan (the whole point of the
            # prediction, "to maximize the probability that the next split
            # will occur on the X-axes").
            x_analysis.alive = select_alive_intervals(x_analysis, cfg.max_alive)
            winner = x_analysis
        cont_score = winner.score if winner is not None else np.inf

        best_cat_gini, best_cat = best_categorical_split(answers)

        # Prediction accounting: was the X axis the attribute that wins?
        # Every part but the root's was given a predicted X axis.
        if node.depth > 0:
            stats.predictions_made += 1
            chosen = (
                winner.attr
                if winner is not None and cont_score <= best_cat_gini
                else (best_cat[0] if best_cat is not None else -1)
            )
            if chosen == mset.x_attr:
                stats.predictions_correct += 1

        parent_scores = {a.attr: a.score for a in analyses if np.isfinite(a.score)}

        # Full CMP hook: try a linear-combination split when univariate
        # splits look poor (overridden by CMPBuilder; returns None here).
        linear = self._maybe_linear(
            node, slot, mset, min(cont_score, best_cat_gini), node_hists,
            parent_scores, next_slot, schema,
        )
        if linear is not None:
            return linear

        if min(cont_score, best_cat_gini) >= node.gini - cfg.min_gain:
            return None

        if best_cat is not None and best_cat_gini < cont_score:
            j, cmask = best_cat
            split: Split = CategoricalSplit(j, tuple(bool(b) for b in cmask))
            return self._single_level_pending(
                node, slot, split, None, node_hists, parent_scores,
                mset.x_attr, next_slot, schema,
            )

        assert winner is not None
        runs = merge_contiguous(winner.alive)
        if len(runs) <= 1:
            # Sides are deterministic: plan each one individually.  A split
            # on the X axis gets exact sub-matrices of every attribute (and
            # may split again, Figure 10 line 18); a split on a Y axis b
            # still yields exact x/b marginals from the sliced (x, b)
            # matrix, used for prediction only (Figure 7, line 2).
            return self._sided_pending(
                node, slot, mset, winner, runs, parent_scores, node_hists,
                next_slot, schema,
            )
        # Two or more alive runs: sides are ambiguous until resolution,
        # so fall back to single-level growth with a shared prediction.
        return self._single_level_pending(
            node, slot, None, winner, node_hists, parent_scores,
            mset.x_attr, next_slot, schema,
        )

    # -- single-level pendings ----------------------------------------------------

    def _single_level_pending(
        self,
        node: Node,
        slot: int,
        exact_split: Split | None,
        winner: AttributeAnalysis | None,
        node_hists: dict[int, ClassHistogram],
        parent_scores: dict[int, float],
        current_x: int,
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> BPending:
        try:
            predicted_x = predict_split({}, parent_scores)
        except ValueError:
            predicted_x = current_x
        child_edges = self._refined_edges(node_hists, node.n_records)
        estimated: dict = {}
        if exact_split is None:
            assert winner is not None
            if not winner.alive:
                exact_split = boundary_split(winner)
            else:
                runs = merge_contiguous(winner.alive)
                estimated = estimated_fields(winner, node_hists[winner.attr], runs)
        p = BPending(node=node, parent_slot=slot, exact_split=exact_split, **estimated)
        p.parts = [
            PartState.planned(next_slot(), schema, child_edges, predicted_x)
            for _ in range(p.n_parts)
        ]
        return p

    # -- two-level pendings ----------------------------------------------------------

    def _sided_pending(
        self,
        node: Node,
        slot: int,
        mset: MatrixSet,
        winner: AttributeAnalysis,
        runs: list[tuple[int, int]],
        parent_scores: dict[int, float],
        node_hists: dict[int, ClassHistogram],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> Generator[list, list[AttributeAnalysis], BPending]:
        """A first split with deterministic sides (at most one alive run).

        Each side gets its own prediction, grids and — when the split fell
        on the X axis — its own second split.  Both sides' histograms are
        analysed in one batch: the generator yields them, receives their
        analyses (batched with every other node's by the level driver)
        and returns the pending.
        """
        first_hist = node_hists[winner.attr]
        q1 = first_hist.n_intervals
        allow_second = winner.attr == mset.x_attr
        if runs:
            p = BPending(
                node=node, parent_slot=slot, **estimated_fields(winner, first_hist, runs)
            )
            i0, i1 = runs[0]
            ranges = [(0, i0), (i1 + 1, q1)]
        else:
            p = BPending(node=node, parent_slot=slot, exact_split=boundary_split(winner))
            k = winner.best_boundary
            ranges = [(0, k + 1), (k + 1, q1)]

        sides = [self._side_hists(mset, winner.attr, lo, hi) for lo, hi in ranges]
        wanted = [
            list(h.items()) if self._side_open(node, h) else [] for h in sides
        ]
        analyses = yield wanted[0] + wanted[1]
        k = len(wanted[0])
        # Both sides' child grids, every attribute of each, in one call.
        qs = [self._grid_size(float(self._side_counts(h).sum())) for h in sides]
        pairs = [
            (side_hists.get(j, h), q)
            for side_hists, q in zip(sides, qs)
            for j, h in node_hists.items()
        ]
        edges = iter(edges_from_histograms(pairs))
        for side_hists, side_analyses in zip(sides, (analyses[:k], analyses[k:])):
            child_edges = {j: next(edges) for j in node_hists}
            p.sides.append(
                self._plan_side(
                    mset, side_hists, side_analyses, child_edges, allow_second,
                    parent_scores, next_slot, schema,
                )
            )
        return p

    def _side_hists(
        self, mset: MatrixSet, split_attr: int, lo: int, hi: int
    ) -> dict[int, ClassHistogram]:
        """Exact marginals available for one side of a split.

        An X-axis split slices every matrix (all attributes exact); a
        Y-axis split slices only the ``(x, b)`` matrix (x and b exact).
        """
        if split_attr == mset.x_attr:
            hists: dict[int, ClassHistogram] = {mset.x_attr: mset.x_marginal(lo, hi)}
            for j in mset.matrices:
                hists[j] = mset.y_marginal(j, lo, hi)
            return hists
        return {
            mset.x_attr: mset.x_marginal_given_y(split_attr, lo, hi),
            split_attr: mset.y_marginal_rows(split_attr, lo, hi),
        }

    @staticmethod
    def _side_counts(side_hists: dict[int, ClassHistogram]) -> np.ndarray:
        """Class counts of one side of a split."""
        return next(iter(side_hists.values())).totals()

    def _side_open(self, node: Node, side_hists: dict[int, ClassHistogram]) -> bool:
        """True when a side may split again, so its marginals are analysed."""
        cfg = self.config
        side_counts = self._side_counts(side_hists)
        return (
            float(side_counts.sum()) >= cfg.min_records
            and float(gini(side_counts)) > cfg.min_gini
            and node.depth + 1 < cfg.max_depth
        )

    def _plan_side(
        self,
        mset: MatrixSet,
        side_hists: dict[int, ClassHistogram],
        analyses: list[AttributeAnalysis],
        child_edges: dict[int, np.ndarray],
        allow_second: bool,
        parent_scores: dict[int, float],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> PendingSplit:
        """Choose a side's second split and preliminary parts (Figure 10, line 18).

        ``analyses`` cover ``side_hists`` in order, or are empty when the
        side cannot split again; ``child_edges`` are the side's child grids.
        A side with no second split is a one-part pending.
        """
        cfg = self.config
        side_gini = float(gini(self._side_counts(side_hists)))

        side_winner = None
        exact_scores = {a.attr: a.score for a in analyses if np.isfinite(a.score)}
        if analyses and allow_second:
            winner = choose_split_attribute(analyses, self.SECOND_MAX_ALIVE)
            if winner is not None and winner.score < side_gini - cfg.min_gain:
                side_winner = winner

        try:
            predicted_x = predict_split(exact_scores, parent_scores)
        except ValueError:
            predicted_x = mset.x_attr
        parts = [
            PartState.planned(next_slot(), schema, child_edges, predicted_x)
            for _ in range(1 if side_winner is None else 2)
        ]
        side = PendingSplit(node=None, parent_slot=parts[0].slot, parts=parts)
        if side_winner is None:
            return side
        side.attr = side_winner.attr
        runs = merge_contiguous(side_winner.alive)
        if runs:
            side.alive_bounds = alive_run_bounds(side_hists[side_winner.attr], runs)
            side.zone_bounds = zone_boundaries(side.alive_bounds)
        else:
            side.exact_split = boundary_split(side_winner)
        return side

    def _grid_size(self, n_records: float) -> int:
        cfg = self.config
        q = adaptive_intervals(cfg.n_intervals, n_records)
        return min(q, max(4, int(cfg.matrix_max_cells**0.5)))

    def _refined_edges(
        self, hists: dict[int, ClassHistogram], n_records: float
    ) -> dict[int, np.ndarray]:
        q = self._grid_size(n_records)
        return dict(zip(hists, edges_from_histograms([(h, q) for h in hists.values()])))

    # ------------------------------------------------------------------ resolve

    def _maybe_linear(
        self,
        node: Node,
        slot: int,
        mset: MatrixSet,
        best_univariate: float,
        node_hists: dict[int, ClassHistogram],
        parent_scores: dict[int, float],
        next_slot: Callable[[], int],
        schema: Schema,
    ) -> BPending | None:
        """Linear-combination split hook; CMP-B never takes one."""
        return None

    def _resolve(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[DecideItem]:
        if p.linear is not None:
            return self._resolve_linear(p, nid, remap, account, schema, stats)
        if p.two_level:
            return self._resolve_two_level(p, nid, remap, account, stats)
        if p.exact_split is not None:
            return p.resolve_exact(remap, account)
        buffered = p.buffered()
        res = resolve_exact_threshold(*p.estimate(), buffered[3], buffered[1])
        if res is None:
            return p.collapse(remap)
        if res.from_buffer:
            stats.splits_resolved_exactly += 1
        split = NumericSplit(p.attr, res.threshold, n_candidates=res.n_candidates)
        targets = p.fold_regions(res.threshold, remap)
        return p.settle(split, targets, remap, account, nid, buffered, res.threshold)

    def _resolve_linear(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[DecideItem]:
        """Resolve a linear split's exact intercept from its band buffer.

        Candidates: the band's lower edge (everything buffered goes right)
        and every distinct buffered projection value.  The left side of a
        candidate is the under part's (exact) class counts plus the
        buffered prefix.
        """
        assert p.linear is not None
        under, above = p.parts
        buffered = Xb, yb, rids, w = p.buffered()
        buf_counts = np.bincount(yb, minlength=schema.n_classes).astype(np.float64)
        base = under.class_counts
        totals = base + above.class_counts + buf_counts

        cut_thr, cut_left = prefix_cuts(
            w, yb, base, schema.n_classes, include_last=True
        )
        cand_thr = np.concatenate([[float(p.zone_bounds[0])], cut_thr])
        best = best_cut(np.concatenate([base[None, :], cut_left]), totals)
        if best is None:
            return p.collapse(remap)
        threshold = float(cand_thr[best[0]])
        split = LinearSplit(
            p.linear.attr_x, p.linear.attr_y, b=p.linear.b,
            c=threshold, a=p.linear.a,
        )
        kids = p.settle(split, p.parts, remap, account, nid, buffered, threshold)
        if kids:
            stats.linear_splits += 1
            stats.splits_resolved_exactly += 1
        return kids

    def _resolve_two_level(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        stats: BuildStats,
    ) -> list[DecideItem]:
        node = p.node
        split = p.exact_split
        if split is None:
            Xb, yb, rids, buf_vals = p.buffered()
            res = resolve_exact_threshold(*p.estimate(), buf_vals, yb)
            if res is None:
                return p.collapse(remap)
            if res.from_buffer:
                stats.splits_resolved_exactly += 1
            split = NumericSplit(p.attr, res.threshold, n_candidates=res.n_candidates)
            if len(yb):
                goes_left = buf_vals <= split.threshold
                for side, m in zip(p.sides, (goes_left, ~goes_left)):
                    if m.any():
                        side.route(Xb[m], yb[m], rids[m], nid)

        items: list[DecideItem] = []
        children: list[Node] = []
        for side in p.sides:
            child, child_items = self._finish_side(
                side, node.depth + 1, remap, nid, account, stats
            )
            children.append(child)
            items.extend(child_items)
        lc = children[0].class_counts.sum()
        rc = children[1].class_counts.sum()
        if lc == 0 or rc == 0:
            # Defensive; resolve candidate validation should prevent this.
            return p.collapse(remap)
        node.split = split
        node.left, node.right = children
        return items

    def _finish_side(
        self,
        side: PendingSplit,
        depth: int,
        remap: dict[int, int],
        nid: np.ndarray,
        account: TreeAccount,
        stats: BuildStats,
    ) -> tuple[Node, list[DecideItem]]:
        """The side's child at ``depth`` and its ``(node, part)`` items.

        A one-part side's child is its part's.  A second split deals its
        buffer and settles as the child's split.  One without a valid
        threshold, or that leaves a part empty, folds its second part into
        its first, and the child is decided again.
        """
        if side.n_parts == 1:
            (part,) = side.parts
            child = account.new_node(depth, part.class_counts.copy())
            return child, [(child, part)]
        buffered = side.buffered()
        split = side.exact_split
        if split is None:
            split = self._resolve_second(side, buffered, stats)
        threshold = np.inf if split is None else split.threshold
        side.deal(side.parts, nid, buffered, threshold)
        lpart, rpart = side.parts
        child = account.new_node(depth, lpart.class_counts + rpart.class_counts)
        side.node = child
        kids = [] if split is None else side.settle(split, side.parts, remap, account)
        if kids:
            stats.two_level_splits += 1
            stats.second_level_node_ids.append(child.node_id)
            return child, kids
        lpart.merge_from(rpart)
        remap[rpart.slot] = lpart.slot
        return child, [(child, lpart)]

    def _resolve_second(
        self, side: PendingSplit, buffered: tuple, stats: BuildStats
    ) -> NumericSplit | None:
        """Exact split for an estimated second split, or ``None``.

        Candidates are the alive run's two edges (ginis recomputed on the
        side's final population) plus every distinct buffered value inside
        the run.  The first part holds the side's records below the run,
        so its counts are every candidate's base.
        """
        __, yb, __, buf_vals = buffered
        lpart, rpart = side.parts
        ((alive_lo, alive_hi),) = side.alive_bounds
        base = lpart.class_counts
        n_classes = len(base)
        buf_counts = np.bincount(yb, minlength=n_classes).astype(np.float64)
        totals = base + rpart.class_counts + buf_counts

        cut_thr, cut_left = prefix_cuts(buf_vals, yb, base, n_classes)
        thr_parts, left_parts = [cut_thr], [cut_left]
        if np.isfinite(alive_lo):
            thr_parts.insert(0, [alive_lo])
            left_parts.insert(0, base[None, :])
        if np.isfinite(alive_hi):
            thr_parts.append([alive_hi])
            left_parts.append((base + buf_counts)[None, :])
        cand_thr = np.concatenate(thr_parts)
        if len(cand_thr) == 0:
            return None
        best = best_cut(np.concatenate(left_parts), totals)
        if best is None:
            return None
        stats.splits_resolved_exactly += 1
        return NumericSplit(
            side.attr, float(cand_thr[best[0]]), n_candidates=len(cand_thr)
        )
