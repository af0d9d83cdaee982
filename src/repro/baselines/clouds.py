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

CLOUDS runs on :class:`~repro.core.builder.LevelBuilder`'s level loop and
shares CMP-S's root accumulator, histogram collection, child grids and
categorical pick.  Its own parts are the decision, which creates a split's
children as soon as it is known, and the SSE exact pass, which
:meth:`CloudsBuilder._ready` makes before each level's scan.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from repro.core.builder import (
    Member,
    PartState,
    PendingScan,
    PendingSplit,
    alive_run_bounds,
    boundary_split,
)
from repro.core.cmp_s import (
    CMPSBuilder,
    best_categorical_split,
    continuous_analyses,
)
from repro.core.gini import best_cut, prefix_cuts
from repro.core.histogram import CategoryHistogram, ClassHistogram, SubsetSplit
from repro.core.intervals import AttributeAnalysis
from repro.core.parallel import ScanEngine
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import Node, TreeAccount
from repro.data.schema import Schema
from repro.io.metrics import BuildStats

_EPS = 1e-12


@dataclass
class _AliveProbe:
    """One alive interval ``(lo, hi]`` of ``attr`` awaiting the exact pass."""

    attr: int
    lo: float
    hi: float
    cum_below: np.ndarray


@dataclass
class _Candidate(PendingSplit):
    """A node's best split known exactly so far, not yet applied.

    ``best*`` start as the best boundary or categorical split; under SSE
    the records of the alive intervals in ``probes`` may beat it.  The
    exact pass, which :meth:`CloudsBuilder._ready` makes before the
    level scan, routes the node's records through :meth:`route` into
    the candidate's buffer; it has no parts and writes no ``nid``.
    """

    best: Split | None = None
    best_gini: float = np.inf
    best_left: np.ndarray = field(default_factory=lambda: np.empty(0))
    probes: list[_AliveProbe] = field(default_factory=list)

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        nid: np.ndarray,
        weights: np.ndarray | None = None,
        delta: PendingScan | None = None,
    ) -> None:
        """Buffer the records inside any probe's alive interval."""
        inside = np.zeros(len(y), dtype=bool)
        for probe in self.probes:
            v = X[:, probe.attr]
            inside |= (v > probe.lo) & (v <= probe.hi)
        if inside.any():
            (self.buffer if delta is None else delta.buffer(self)).append(
                X[inside], y[inside], rids[inside]
            )

    def probed(self) -> list[tuple[_AliveProbe, np.ndarray, np.ndarray]]:
        """Each probe with the values and labels of its buffered records."""
        Xb, yb, __ = self.buffer.concatenated()
        out = []
        for probe in self.probes:
            v = Xb[:, probe.attr] if len(yb) else np.empty(0)
            inside = (v > probe.lo) & (v <= probe.hi)
            out.append((probe, v[inside], yb[inside]))
        return out


class CloudsBuilder(CMPSBuilder):
    """The CLOUDS classifier (modes "ss" and "sse")."""

    name = "CLOUDS"
    #: CLOUDS has no PUBLIC(1) integration; ``prune="public"`` runs the
    #: equivalent post-hoc MDL pass.
    supports_integrated_pruning = False

    # -- decisions -----------------------------------------------------------------

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
        """Split at the best exact candidate, or wait for the exact pass."""
        cfg = self.config
        hists = part.hists
        if self._stops(node):
            return None

        # Exact candidates available right now: boundaries & subset splits.
        best_cat_gini, best_cat = best_categorical_split(answers)
        analyses = continuous_analyses(answers)
        boundary_best: AttributeAnalysis | None = None
        for a in analyses:
            if a.has_boundaries and (
                boundary_best is None or a.gini_min < boundary_best.gini_min
            ):
                boundary_best = a
        gini_min = boundary_best.gini_min if boundary_best is not None else np.inf

        p = _Candidate(
            node=node,
            parent_slot=part.slot,
            child_edges=self._refined_edges(
                hists, schema.continuous_indices(), node.n_records
            ),
        )
        if best_cat is not None and best_cat_gini < gini_min:
            j, mask = best_cat
            cat_hist = hists[j]
            assert isinstance(cat_hist, CategoryHistogram)
            p.best = CategoricalSplit(j, tuple(bool(b) for b in mask))
            p.best_gini = best_cat_gini
            p.best_left = cat_hist.counts[np.asarray(mask, dtype=bool)].sum(axis=0)
        elif boundary_best is not None:
            a = boundary_best
            hist = hists[a.attr]
            assert isinstance(hist, ClassHistogram)
            p.best = boundary_split(a)
            p.best_gini = a.gini_min
            p.best_left = hist.cumulative()[a.best_boundary]

        if cfg.clouds_mode == "sse":
            # Alive intervals across all attributes vs the best exact split.
            for a in analyses:
                hist = hists[a.attr]
                assert isinstance(hist, ClassHistogram)
                alive = [int(i) for i in np.nonzero(a.est < p.best_gini - _EPS)[0]]
                bounds = alive_run_bounds(hist, [(i, i) for i in alive])
                p.probes += [
                    _AliveProbe(a.attr, lo, hi, hist.cum_below(i))
                    for i, (lo, hi) in zip(alive, bounds)
                ]
            best_possible = min(
                p.best_gini, min((a.est_min for a in analyses), default=np.inf)
            )
            if best_possible >= node.gini - cfg.min_gain:
                return None
            if p.probes:
                return p
        return self._split(p, next_slot, account, schema)

    def _split(
        self,
        p: _Candidate,
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
    ) -> PendingSplit | None:
        """Apply ``p``'s best split and create the node's children.

        Returns the pending that routes the children's records, or
        ``None`` when the split does not pay, is degenerate or leaves
        no child to grow.
        """
        node = p.node
        if p.best is None or p.best_gini >= node.gini - self.config.min_gain:
            return None
        left_counts = np.asarray(p.best_left, dtype=np.float64)
        right_counts = node.class_counts - left_counts
        if left_counts.sum() <= 0 or right_counts.sum() <= 0:
            return None
        node.split = p.best
        node.left = account.new_node(node.depth + 1, left_counts)
        node.right = account.new_node(node.depth + 1, right_counts)
        # A child that is a leaf already needs only its slot and counts.
        growing = [not self._stops(kid) for kid in (node.left, node.right)]
        parts = [
            PartState.planned(next_slot(), schema, p.child_edges if grows else None)
            for grows in growing
        ]
        if not any(growing):
            return None
        return PendingSplit(
            node=node,
            parent_slot=p.parent_slot,
            child_edges=p.child_edges,
            exact_split=p.best,
            parts=parts,
        )

    def _resolve(
        self,
        p: PendingSplit,
        nid: np.ndarray,
        remap: dict[int, int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[tuple[Node, PartState]]:
        """The split's growing children; the scan filled their histograms."""
        node = p.node
        return [
            (kid, part)
            for kid, part in zip((node.left, node.right), p.parts)
            if part.hists
        ]

    # -- the SSE exact pass ----------------------------------------------------------

    def _ready(
        self,
        table,
        engine: ScanEngine,
        stats: BuildStats,
        schema: Schema,
        members: list[Member],
    ) -> list[Member]:
        """Settle every pending waiting on the exact pass with one scan."""
        (m,) = members
        waiting = {
            slot: p for slot, p in m.pendings.items() if isinstance(p, _Candidate)
        }
        if waiting:
            # The exact pass: a level scan over the waiting candidates.
            exact = replace(m, pendings=waiting)
            self._scan_level(table, engine, stats, m.nid, [exact])
            pendings = {s: p for s, p in m.pendings.items() if s not in waiting}
            with stats.phase("resolve"):
                for slot, p in waiting.items():
                    node_id = p.node.node_id
                    probed = p.probed()
                    stats.memory.allocate(
                        f"{m.prefix}probe/{node_id}",
                        sum(2 * v.nbytes for __, v, __ in probed),
                    )
                    q = self._finish(p, probed, m.next_slot, m.account, schema, stats)
                    stats.memory.release(f"{m.prefix}probe/{node_id}")
                    if q is None:
                        stats.memory.release(f"{m.prefix}parts/{node_id}")
                    else:
                        stats.memory.allocate(
                            f"{m.prefix}parts/{node_id}", q.parts_nbytes()
                        )
                        pendings[slot] = q
            m.pendings = pendings
        return super()._ready(table, engine, stats, schema, members)

    def _finish(
        self,
        p: _Candidate,
        probed: list[tuple[_AliveProbe, np.ndarray, np.ndarray]],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> PendingSplit | None:
        """Improve ``p`` with its ``probed`` records, then apply it."""
        totals = np.asarray(p.node.class_counts, dtype=np.float64)
        improved = False
        for probe, values, labels in probed:
            if not len(values):
                continue
            thresholds, left = prefix_cuts(
                values, labels, probe.cum_below, schema.n_classes
            )
            best = best_cut(left, totals)
            if best is None:
                continue
            k, g = best
            if g < p.best_gini - _EPS:
                p.best_gini = g
                p.best = NumericSplit(
                    probe.attr, float(thresholds[k]), n_candidates=len(thresholds)
                )
                p.best_left = left[k]
                improved = True
        if improved and p.best_gini < p.node.gini - self.config.min_gain:
            stats.splits_resolved_exactly += 1
        return self._split(p, next_slot, account, schema)
