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

from dataclasses import dataclass, field, replace
from typing import Callable, Generator

import numpy as np

from repro.core.builder import (
    Decision,
    LevelBuilder,
    PendingSplit,
    RecordBuffer,
    adaptive_intervals,
    alive_run_bounds,
    best_cut,
    classify_zones,
    estimated_fields,
    prefix_cuts,
    resolve_exact_threshold,
)
from repro.core.gini import gini
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
class BPart:
    """A preliminary subnode accumulating a MatrixSet during a scan.

    ``marginals`` holds the node's marginal histograms from
    :meth:`CMPBBuilder._collect` until :meth:`CMPBBuilder._decide` takes
    them.
    """

    slot: int
    mset: MatrixSet
    predicted: bool
    marginals: dict[int, ClassHistogram] | None = field(
        default=None, repr=False, compare=False
    )

    def update(self, X: np.ndarray, y: np.ndarray) -> None:
        """Add a batch of records to the matrices."""
        self.mset.update(X, y)

    def nbytes(self) -> int:
        """Memory footprint of the matrices."""
        return self.mset.nbytes()

    @property
    def class_counts(self) -> np.ndarray:
        """Class counts of the records added so far."""
        return self.mset.class_counts

    def clone_empty(self) -> "BPart":
        """Structural copy with zeroed matrices (a worker's scan delta)."""
        return BPart(self.slot, self.mset.clone_empty(), self.predicted)

    def merge_from(self, other: "BPart") -> None:
        """Fold another part's counts into this one (exact, associative)."""
        self.mset.merge_from(other.mset)


@dataclass
class SecondSplit:
    """Per-side second split of a two-level pending.

    Either ``exact_split`` is set (boundary split, no alive interval) or
    the split is estimated around a single alive run ``(alive_lo,
    alive_hi]`` of the side's grid along ``attr``; ``aux_hist`` (on the
    parent-grid edges of ``attr``) accumulates the side's non-buffered
    records so the exact threshold can be resolved without re-deriving the
    side's marginals.
    """

    attr: int
    parts: list[BPart]
    exact_split: NumericSplit | None = None
    alive_lo: float = np.nan
    alive_hi: float = np.nan
    run_i0: int = -1
    run_i1: int = -1
    aux_hist: ClassHistogram | None = None
    buffer: RecordBuffer = field(default_factory=RecordBuffer)

    def scan_delta(self) -> "SecondSplit":
        """Structural clone with empty accumulators (worker-private)."""
        return replace(
            self,
            parts=[part.clone_empty() for part in self.parts],
            aux_hist=(
                self.aux_hist.clone_empty() if self.aux_hist is not None else None
            ),
            buffer=RecordBuffer(budget_bytes=self.buffer.budget_bytes),
        )

    def merge_scan_delta(self, delta: "SecondSplit") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        for part, dpart in zip(self.parts, delta.parts):
            part.merge_from(dpart)
        if self.aux_hist is not None:
            assert delta.aux_hist is not None
            self.aux_hist.merge_from(delta.aux_hist)
        self.buffer.extend_from(delta.buffer)


@dataclass
class Side:
    """One half of a two-level pending's first split."""

    second: SecondSplit | None
    part: BPart | None  # the side's single part when ``second`` is None

    def parts(self) -> list[BPart]:
        """All preliminary parts of this side."""
        if self.second is not None:
            return self.second.parts
        assert self.part is not None
        return [self.part]

    def route(
        self, X: np.ndarray, y: np.ndarray, rids: np.ndarray, nid: np.ndarray
    ) -> None:
        """Route the records that fell on this side into its parts."""
        if self.second is None:
            assert self.part is not None
            self.part.update(X, y)
            nid[rids] = self.part.slot
            return
        sec = self.second
        if sec.exact_split is not None:
            left = sec.exact_split.goes_left(X)
            for part, m in zip(sec.parts, (left, ~left)):
                part.update(X[m], y[m])
                nid[rids[m]] = part.slot
            return
        v = X[:, sec.attr]
        zones = classify_zones(v, np.array([sec.alive_lo, sec.alive_hi]))
        buffered = zones == 1
        if buffered.any():
            sec.buffer.append(X[buffered], y[buffered], rids[buffered])
        assert sec.aux_hist is not None
        sec.aux_hist.update(v[~buffered], y[~buffered])
        for r, part in enumerate(sec.parts):
            m = zones == 2 * r
            if m.any():
                part.update(X[m], y[m])
                nid[rids[m]] = part.slot

    def scan_delta(self) -> "Side":
        """Structural clone with empty accumulators (worker-private)."""
        return Side(
            second=self.second.scan_delta() if self.second is not None else None,
            part=self.part.clone_empty() if self.part is not None else None,
        )

    def merge_scan_delta(self, delta: "Side") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        if self.second is not None:
            assert delta.second is not None
            self.second.merge_scan_delta(delta.second)
        if self.part is not None:
            assert delta.part is not None
            self.part.merge_from(delta.part)


@dataclass
class BPending(PendingSplit):
    """A CMP-B pending split (single- or two-level, or linear).

    The inherited fields carry the single-level path (CMP-S semantics
    over :class:`BPart` matrix parts) and, for a two-level pending, the
    first split's alive interval.
    """

    two_level: bool = False
    first_exact_threshold: float | None = None
    #: Candidate-threshold count behind ``first_exact_threshold`` (the MDL
    #: split-encoding value term).
    first_exact_candidates: int = 1
    sides: list[Side] = field(default_factory=list)
    # --- linear path (full CMP): a projection band instead of an attribute --
    linear: "LinearSplit | None" = None

    def all_parts(self) -> list[BPart]:
        """Every preliminary part across both paths."""
        if self.two_level:
            return [p for s in self.sides for p in s.parts()]
        return self.parts

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
    ) -> None:
        """Route this node's records; two-level pendings route per side."""
        if not self.two_level:
            super().route(X, y, rids, nid, weights)
            return
        xv = X[:, self.attr]
        if self.first_exact_threshold is not None:
            side_idx = (xv > self.first_exact_threshold).astype(np.intp)
            keep = np.ones(len(y), dtype=bool)
        else:
            zones = classify_zones(xv, self.zone_bounds)
            buffered = zones == 1
            if buffered.any():
                self.buffer.append(X[buffered], y[buffered], rids[buffered])
            keep = ~buffered
            side_idx = (zones == 2).astype(np.intp)
        for s, side in enumerate(self.sides):
            m = keep & (side_idx == s)
            if m.any():
                side.route(X[m], y[m], rids[m], nid)

    def scan_delta(self) -> "BPending":
        """Structural clone with empty accumulators (one worker's delta).

        Covers all four routing paths — exact, estimated, two-level and
        linear; the sides' parts, aux histograms and buffers are fresh too.
        """
        delta = super().scan_delta()
        delta.sides = [side.scan_delta() for side in self.sides]
        return delta

    def merge_scan_delta(self, delta: "BPending") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        super().merge_scan_delta(delta)
        for side, dside in zip(self.sides, delta.sides):
            side.merge_scan_delta(dside)

    def delta_nbytes(self) -> int:
        """Bytes one fresh scan delta occupies (buffers start empty)."""
        total = self.parts_nbytes()
        for side in self.sides:
            if side.second is not None and side.second.aux_hist is not None:
                total += side.second.aux_hist.nbytes()
        return total

    def buffer_nbytes(self) -> int:
        """Bytes buffered by the first split and every second split."""
        return self.buffer.nbytes() + sum(
            s.second.buffer.nbytes() for s in self.sides if s.second is not None
        )


DecideItem = tuple[Node, BPart]


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
    ) -> BPart:
        """Root matrices (Figure 10, line 03) on a random X axis (§2.2)."""
        cont = schema.continuous_indices()
        root_x = int(cont[rng.integers(0, len(cont))])
        return BPart(0, MatrixSet.create(schema, root_x, root_edges), False)

    # ------------------------------------------------------------------ decide

    def _collect(
        self, node: Node, part: BPart
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
        part: BPart,
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
        if part.predicted:
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
                exact_split = NumericSplit(
                    winner.attr,
                    float(winner.edges[winner.best_boundary]),
                    n_candidates=max(1, len(winner.edges)),
                )
            else:
                runs = merge_contiguous(winner.alive)
                estimated = estimated_fields(winner, node_hists[winner.attr], runs)
        p = BPending(node=node, parent_slot=slot, exact_split=exact_split, **estimated)
        p.parts = [
            BPart(next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True)
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
                node=node,
                parent_slot=slot,
                two_level=True,
                **estimated_fields(winner, first_hist, runs),
            )
            i0, i1 = runs[0]
            ranges = [(0, i0), (i1 + 1, q1)]
        else:
            p = BPending(node=node, parent_slot=slot, attr=winner.attr, two_level=True)
            k = winner.best_boundary
            p.first_exact_threshold = float(first_hist.edges[k])
            p.first_exact_candidates = max(1, len(first_hist.edges))
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
    ) -> Side:
        """Choose a side's second split and preliminary parts (Figure 10, line 18).

        ``analyses`` cover ``side_hists`` in order, or are empty when the
        side cannot split again; ``child_edges`` are the side's child grids.
        """
        cfg = self.config
        side_gini = float(gini(self._side_counts(side_hists)))

        second: SecondSplit | None = None
        exact_scores = {a.attr: a.score for a in analyses if np.isfinite(a.score)}
        if analyses and allow_second:
            side_winner = choose_split_attribute(analyses, self.SECOND_MAX_ALIVE)
            if side_winner is not None and side_winner.score < side_gini - cfg.min_gain:
                second = self._plan_second_split(
                    side_winner, side_hists[side_winner.attr], schema
                )

        try:
            predicted_x = predict_split(exact_scores, parent_scores)
        except ValueError:
            predicted_x = mset.x_attr
        if second is None:
            part = BPart(
                next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True
            )
            return Side(second=None, part=part)
        second.parts = [
            BPart(next_slot(), MatrixSet.create(schema, predicted_x, child_edges), True)
            for _ in range(2)
        ]
        return Side(second=second, part=None)

    def _plan_second_split(
        self,
        side_winner: AttributeAnalysis,
        hist: ClassHistogram,
        schema: Schema,
    ) -> SecondSplit:
        runs = merge_contiguous(side_winner.alive)
        if not runs:
            return SecondSplit(
                attr=side_winner.attr,
                parts=[],
                exact_split=NumericSplit(
                    side_winner.attr,
                    float(side_winner.edges[side_winner.best_boundary]),
                    n_candidates=max(1, len(side_winner.edges)),
                ),
            )
        i0, i1 = runs[0]
        ((lo, hi),) = alive_run_bounds(hist, runs[:1])
        return SecondSplit(
            attr=side_winner.attr,
            parts=[],
            alive_lo=lo,
            alive_hi=hi,
            run_i0=i0,
            run_i1=i1,
            aux_hist=ClassHistogram(hist.edges, schema.n_classes),
        )

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
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[DecideItem]:
        if p.linear is not None:
            return self._resolve_linear(p, nid, remap, account, schema, stats)
        if p.two_level:
            return self._resolve_two_level(p, nid, remap, account, schema, stats)
        if p.exact_split is not None:
            return p.resolve_exact(remap, account)

        Xb, yb, rids, buf_vals = p.buffered()
        res = resolve_exact_threshold(*p.estimate(), buf_vals, yb)
        if res is None:
            return p.collapse(remap)
        if res.from_buffer:
            stats.splits_resolved_exactly += 1
        threshold = res.threshold

        base = p.parts[0]
        x_attr, edges = base.mset.x_attr, self._edges_of(base.mset)
        left = BPart(next_slot(), MatrixSet.create(schema, x_attr, edges), base.predicted)
        right = BPart(
            next_slot(), MatrixSet.create(schema, x_attr, edges), p.parts[-1].predicted
        )
        for part, hi in zip(p.parts, p.region_tops()):
            target = left if hi <= threshold else right
            target.merge_from(part)
            remap[part.slot] = target.slot
        if len(yb):
            goes_left = buf_vals <= threshold
            for target, m in ((left, goes_left), (right, ~goes_left)):
                target.update(Xb[m], yb[m])
                nid[rids[m]] = target.slot
        if left.class_counts.sum() == 0 or right.class_counts.sum() == 0:
            return p.collapse(remap)
        node = p.node
        node.split = NumericSplit(p.attr, threshold, n_candidates=res.n_candidates)
        node.left = account.new_node(node.depth + 1, left.class_counts.copy())
        node.right = account.new_node(node.depth + 1, right.class_counts.copy())
        return [(node.left, left), (node.right, right)]

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
        node = p.node
        under, above = p.parts
        assert under.mset.class_counts is not None
        assert above.mset.class_counts is not None
        Xb, yb, rids, w = p.buffered()
        buf_counts = np.bincount(yb, minlength=schema.n_classes).astype(np.float64)
        base = under.mset.class_counts
        totals = base + above.mset.class_counts + buf_counts

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
        if len(yb):
            goes_left = w <= threshold
            for part, m in ((under, goes_left), (above, ~goes_left)):
                part.update(Xb[m], yb[m])
                nid[rids[m]] = part.slot
        if (
            under.mset.class_counts.sum() == 0
            or above.mset.class_counts.sum() == 0
        ):
            return p.collapse(remap)
        stats.linear_splits += 1
        stats.splits_resolved_exactly += 1
        node.split = split
        leftn = account.new_node(node.depth + 1, under.mset.class_counts.copy())
        rightn = account.new_node(node.depth + 1, above.mset.class_counts.copy())
        node.left, node.right = leftn, rightn
        return [(leftn, under), (rightn, above)]

    def _resolve_two_level(
        self,
        p: BPending,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[DecideItem]:
        node = p.node
        if p.first_exact_threshold is not None:
            threshold = p.first_exact_threshold
            first_candidates = p.first_exact_candidates
        else:
            Xb, yb, rids, buf_vals = p.buffered()
            res = resolve_exact_threshold(*p.estimate(), buf_vals, yb)
            if res is None:
                return p.collapse(remap)
            if res.from_buffer:
                stats.splits_resolved_exactly += 1
            threshold = res.threshold
            first_candidates = res.n_candidates
            if len(yb):
                goes_left = buf_vals <= threshold
                for s, m in ((0, goes_left), (1, ~goes_left)):
                    if m.any():
                        p.sides[s].route(Xb[m], yb[m], rids[m], nid)

        items: list[DecideItem] = []
        children: list[Node] = []
        for side in p.sides:
            child, child_items = self._finish_side(
                side, node.depth, remap, nid, account, schema, stats
            )
            children.append(child)
            items.extend(child_items)
        lc = children[0].class_counts.sum()
        rc = children[1].class_counts.sum()
        if lc == 0 or rc == 0:
            # Defensive; resolve candidate validation should prevent this.
            return p.collapse(remap)
        node.split = NumericSplit(p.attr, threshold, n_candidates=first_candidates)
        node.left, node.right = children
        return items

    def _finish_side(
        self,
        side: Side,
        parent_depth: int,
        remap: dict[int, int],
        nid: np.ndarray,
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> tuple[Node, list[DecideItem]]:
        if side.second is None:
            assert side.part is not None
            part = side.part
            assert part.mset.class_counts is not None
            child = account.new_node(parent_depth + 1, part.mset.class_counts.copy())
            return child, [(child, part)]

        sec = side.second
        if sec.exact_split is not None:
            split: NumericSplit | None = sec.exact_split
            c2 = None
        else:
            split, c2 = self._resolve_second(sec, schema, stats)
        lpart, rpart = sec.parts
        if split is None:
            return self._merge_side(side, parent_depth, remap, nid, account)
        if c2 is not None:
            # Distribute the second-level buffer.
            Xb, yb, rids = sec.buffer.concatenated()
            if len(yb):
                goes_left = Xb[:, sec.attr] <= c2
                for part, m in ((lpart, goes_left), (rpart, ~goes_left)):
                    part.update(Xb[m], yb[m])
                    nid[rids[m]] = part.slot
        assert lpart.mset.class_counts is not None
        assert rpart.mset.class_counts is not None
        if (
            lpart.mset.class_counts.sum() == 0
            or rpart.mset.class_counts.sum() == 0
        ):
            return self._merge_side(side, parent_depth, remap, nid, account)
        stats.two_level_splits += 1
        child = account.new_node(
            parent_depth + 1,
            lpart.mset.class_counts + rpart.mset.class_counts,
        )
        child.split = split
        stats.second_level_node_ids.append(child.node_id)
        gl = account.new_node(parent_depth + 2, lpart.mset.class_counts.copy())
        gr = account.new_node(parent_depth + 2, rpart.mset.class_counts.copy())
        child.left, child.right = gl, gr
        return child, [(gl, lpart), (gr, rpart)]

    def _resolve_second(
        self, sec: SecondSplit, schema: Schema, stats: BuildStats
    ) -> tuple[NumericSplit | None, float | None]:
        """Exact threshold for an estimated second split.

        Candidates are the alive run's two edges (ginis recomputed on the
        side's final population) plus every distinct buffered value inside
        the run.  Returns ``(split, threshold)`` or ``(None, None)`` when
        no valid candidate exists.
        """
        assert sec.aux_hist is not None
        Xb, yb, __ = sec.buffer.concatenated()
        buf_vals = Xb[:, sec.attr] if len(yb) else np.empty(0)
        base = sec.aux_hist.cum_below(sec.run_i0)
        buf_counts = np.bincount(yb, minlength=schema.n_classes).astype(np.float64)
        totals = sec.aux_hist.totals() + buf_counts

        cut_thr, cut_left = prefix_cuts(buf_vals, yb, base, schema.n_classes)
        thr_parts, left_parts = [cut_thr], [cut_left]
        if np.isfinite(sec.alive_lo):
            thr_parts.insert(0, [sec.alive_lo])
            left_parts.insert(0, base[None, :])
        if np.isfinite(sec.alive_hi):
            thr_parts.append([sec.alive_hi])
            left_parts.append((base + buf_counts)[None, :])
        cand_thr = np.concatenate(thr_parts)
        if len(cand_thr) == 0:
            return None, None
        best = best_cut(np.concatenate(left_parts), totals)
        if best is None:
            return None, None
        threshold = float(cand_thr[best[0]])
        stats.splits_resolved_exactly += 1
        return (
            NumericSplit(sec.attr, threshold, n_candidates=len(cand_thr)),
            threshold,
        )

    def _merge_side(
        self,
        side: Side,
        parent_depth: int,
        remap: dict[int, int],
        nid: np.ndarray,
        account: TreeAccount,
    ) -> tuple[Node, list[DecideItem]]:
        """Collapse a side whose second split failed into one child."""
        sec = side.second
        assert sec is not None
        lpart, rpart = sec.parts
        lpart.mset.merge_from(rpart.mset)
        remap[rpart.slot] = lpart.slot
        Xb, yb, rids = sec.buffer.concatenated()
        if len(yb):
            lpart.mset.update(Xb, yb)
            nid[rids] = lpart.slot
        assert lpart.mset.class_counts is not None
        child = account.new_node(parent_depth + 1, lpart.mset.class_counts.copy())
        return child, [(child, lpart)]

    # ------------------------------------------------------------------ misc

    @staticmethod
    def _edges_of(mset: MatrixSet) -> dict[int, np.ndarray]:
        edges = {mset.x_attr: mset.x_edges}
        for j, m in mset.matrices.items():
            edges[j] = m.y_edges
        return edges
