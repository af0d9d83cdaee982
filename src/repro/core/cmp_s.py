"""CMP-S: the single-variable CMP classifier (Figure 4 of the paper).

CMP-S is "a variation of the CLOUDS algorithm specialized to reduce disk
access up to 50%".  Per tree level it performs exactly **one** scan of the
training set, during which it simultaneously:

1. routes each record from its (pending) parent node into the preliminary
   subnodes created by the parent's *estimated* split, updating the fresh
   per-subnode histograms (Figure 4, lines 05-09);
2. sets aside records that fall into an alive interval of the parent's
   split in an in-memory buffer (line 07);

and after the scan:

3. sorts each buffer to resolve the parent's **exact** split threshold and
   merges the preliminary subnodes accordingly (lines 11-13, Figure 3);
4. analyzes the now-complete child histograms — the whole level's in one
   batch — picks each child's splitting attribute, estimates its split
   and its alive intervals (lines 15-19).

The scan loop itself — the quantiling and root scans, the per-level scan
with its routing (:meth:`~repro.core.builder.PendingSplit.route`),
overflow rescans, slot remapping, PUBLIC(1) pruning and checkpoints — is
:class:`~repro.core.builder.LevelBuilder`'s; this module supplies the
CMP-S strategy: per-attribute histograms as the root accumulator, the
histograms each decision needs analysed, decisions and resolution.
Child grids are re-quantiled from the parent's histograms without
touching the data, all of a node's in one call
(:func:`repro.data.discretize.edges_from_histograms`).
"""

from __future__ import annotations

from typing import Callable, Iterable

import numpy as np

from repro.core.builder import (
    LevelBuilder,
    PartState,
    PendingSplit,
    RecordBuffer,
    adaptive_intervals,
    estimated_fields,
    make_part_hists,
    resolve_exact_threshold,
)
from repro.core.histogram import CategoryHistogram, ClassHistogram, SubsetSplit
# ``analyze_attribute`` and ``edges_from_histogram`` stay bound here for
# tools that patch them by name.
from repro.core.intervals import (
    AttributeAnalysis,
    analyze_attribute,
    choose_split_attribute,
)
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import Node, TreeAccount
from repro.data.discretize import edges_from_histogram, edges_from_histograms
from repro.data.schema import Schema
from repro.io.metrics import BuildStats


def merge_contiguous(indices: list[int]) -> list[tuple[int, int]]:
    """Collapse sorted interval indices into inclusive contiguous runs."""
    runs: list[tuple[int, int]] = []
    for i in indices:
        if runs and i == runs[-1][1] + 1:
            runs[-1] = (runs[-1][0], i)
        else:
            runs.append((i, i))
    return runs


def best_categorical_split(
    answers: Iterable[AttributeAnalysis | SubsetSplit],
) -> tuple[float, tuple[int, np.ndarray] | None]:
    """The best subset split among a node's answered categorical attributes.

    ``answers`` are the node's :meth:`~LevelBuilder._collect` answers;
    only its :class:`SubsetSplit` entries are read.  Returns ``(gini,
    (attr, left_mask))``, or ``(inf, None)`` when no attribute has two
    non-empty categories.  Ties go to the first attribute.
    """
    best_gini = np.inf
    best: tuple[int, np.ndarray] | None = None
    for a in answers:
        if isinstance(a, SubsetSplit) and a.mask is not None and a.gini < best_gini:
            best_gini, best = a.gini, (a.attr, a.mask)
    return best_gini, best


def continuous_analyses(
    answers: list[AttributeAnalysis | SubsetSplit],
) -> list[AttributeAnalysis]:
    """The class-histogram analyses among a node's answers, in order."""
    return [a for a in answers if isinstance(a, AttributeAnalysis)]


class CMPSBuilder(LevelBuilder):
    """The CMP-S classifier."""

    name = "CMP-S"

    def _root_part(
        self,
        schema: Schema,
        root_edges: dict[int, np.ndarray],
        rng: np.random.Generator,
    ) -> PartState:
        """Root histograms on the quantiled grid (Figure 4, line 03)."""
        return PartState(0, schema.n_classes, make_part_hists(schema, root_edges))

    # -- decisions (Figure 4, lines 15-19) ------------------------------------

    def _collect(
        self, node: Node, part: PartState
    ) -> list[tuple[int, ClassHistogram | CategoryHistogram]]:
        """Every attribute's histogram, unless the node stops."""
        if self._stops(node):
            return []
        return list(part.hists.items())

    def _decide(
        self,
        node: Node,
        part: PartState,
        answers: list[AttributeAnalysis | SubsetSplit],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> PendingSplit | None:
        """Pick the node's split (estimated or exact) or make it a leaf."""
        cfg = self.config
        slot, hists = part.slot, part.hists
        if self._stops(node):
            return None
        cont = schema.continuous_indices()
        winner = choose_split_attribute(continuous_analyses(answers), cfg.max_alive)
        cont_score = winner.score if winner is not None else np.inf

        best_cat_gini, best_cat = best_categorical_split(answers)

        if min(cont_score, best_cat_gini) >= node.gini - cfg.min_gain:
            return None

        child_edges = self._refined_edges(hists, cont, node.n_records)
        if best_cat is not None and best_cat_gini < cont_score:
            j, mask = best_cat
            fields = dict(exact_split=CategoricalSplit(j, tuple(bool(b) for b in mask)))
        elif not winner.alive:
            split = NumericSplit(
                winner.attr,
                float(winner.edges[winner.best_boundary]),
                n_candidates=max(1, len(winner.edges)),
            )
            fields = dict(exact_split=split)
        else:
            # Estimated split around the alive intervals.
            hist = hists[winner.attr]
            assert isinstance(hist, ClassHistogram)
            fields = dict(
                buffer=RecordBuffer(budget_bytes=cfg.buffer_budget_bytes),
                **estimated_fields(winner, hist, merge_contiguous(winner.alive)),
            )
        p = PendingSplit(node=node, parent_slot=slot, child_edges=child_edges, **fields)
        p.parts = [
            PartState(next_slot(), schema.n_classes, make_part_hists(schema, child_edges))
            for _ in range(p.n_parts)
        ]
        return p

    def _refined_edges(
        self, hists: dict, cont: list[int], n_records: float
    ) -> dict[int, np.ndarray]:
        """Re-quantile each continuous attribute from the node's histogram."""
        q = adaptive_intervals(self.config.n_intervals, n_records)
        return dict(zip(cont, edges_from_histograms([(hists[j], q) for j in cont])))

    # -- resolution (Figure 4, lines 11-13) -----------------------------------

    def _resolve(
        self,
        p: PendingSplit,
        nid: np.ndarray,
        remap: dict[int, int],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[tuple[Node, PartState]]:
        """Materialize a pending split; returns the children to decide on."""
        if p.exact_split is not None:
            return p.resolve_exact(remap, account)

        Xb, yb, rids, buf_vals = p.buffered()
        res = resolve_exact_threshold(*p.estimate(), buf_vals, yb)
        if res is None:
            return p.collapse(remap)
        if res.from_buffer:
            stats.splits_resolved_exactly += 1
        threshold = res.threshold

        left = PartState(next_slot(), schema.n_classes, make_part_hists(schema, p.child_edges))
        right = PartState(next_slot(), schema.n_classes, make_part_hists(schema, p.child_edges))
        for part, hi in zip(p.parts, p.region_tops()):
            side = left if hi <= threshold else right
            side.merge_from(part)
            remap[part.slot] = side.slot

        if len(yb):
            goes_left = buf_vals <= threshold
            left.update(Xb[goes_left], yb[goes_left])
            right.update(Xb[~goes_left], yb[~goes_left])
            nid[rids[goes_left]] = left.slot
            nid[rids[~goes_left]] = right.slot

        if left.class_counts.sum() == 0 or right.class_counts.sum() == 0:
            # Defensive: candidate validation should prevent this.
            remap[left.slot] = remap[right.slot] = p.parent_slot
            return p.collapse(remap)

        node = p.node
        node.split = NumericSplit(p.attr, threshold, n_candidates=res.n_candidates)
        node.left = account.new_node(node.depth + 1, left.class_counts)
        node.right = account.new_node(node.depth + 1, right.class_counts)
        return [(node.left, left), (node.right, right)]
