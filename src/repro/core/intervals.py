"""Alive-interval analysis (§2.1 "Sampling the splitting points…").

Given a node's per-attribute histograms, this module decides:

* ``gini_a^min`` — the best boundary gini of each attribute;
* ``gini_a^est`` — the per-interval lower-bound estimates;
* which attribute wins the split (CMP-S restriction 1: the attribute whose
  best estimate is minimal — alive intervals on other attributes are
  pruned);
* which of the winner's intervals stay *alive* (restriction 2: estimates
  strictly below ``gini_a^min``, capped to the lowest ``N``).

When no interval stays alive, the best split point is an interval boundary
and is therefore already exact.

:func:`analyze_attributes` analyses any number of histograms — a whole
tree level's, across nodes and attributes — as one array program;
:func:`analyze_attribute` is its one-histogram case.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.estimation import interval_estimates, segment_frame
from repro.core.gini import gini, gini_partition
from repro.core.histogram import ClassHistogram
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

#: Tolerance for "strictly better than the best boundary" comparisons.
_EPS = 1e-12


@dataclass
class AttributeAnalysis:
    """Everything CMP-S derives from one attribute's histogram."""

    attr: int
    edges: np.ndarray
    boundary_gini: np.ndarray
    gini_min: float
    best_boundary: int
    est: np.ndarray
    est_min: float
    node_gini: float
    alive: list[int] = field(default_factory=list)

    @property
    def score(self) -> float:
        """Selection score: the most optimistic gini this attribute offers."""
        return min(self.gini_min, self.est_min)

    @property
    def has_boundaries(self) -> bool:
        """True when at least one non-degenerate boundary exists."""
        return np.isfinite(self.gini_min)

    @property
    def splittable(self) -> bool:
        """True when the attribute offers any split, exact or estimated."""
        return np.isfinite(self.score)


def analyze_attribute(attr: int, hist: ClassHistogram) -> AttributeAnalysis:
    """Compute boundary ginis and interval estimates for one attribute.

    The one-histogram case of :func:`analyze_attributes`.
    """
    return analyze_attributes([(attr, hist)])[0]


def analyze_attributes(
    items: list[tuple[int, ClassHistogram]],
    tracer: "Tracer | NullTracer" = NULL_TRACER,
) -> list[AttributeAnalysis]:
    """Analyse many ``(attr, histogram)`` pairs in one array program.

    The histograms, which share one class count as a build's always do,
    are stacked into one ``(Σq, c)`` array, one segment each, and every
    step below runs once over all rows; only the final per-segment
    slicing loops in Python.  Each analysis is bit-identical to analysing
    its histogram alone.  The call records one ``intervals.estimate``
    span on ``tracer``.

    Boundaries with an empty side (all of the node's records on one side)
    are *degenerate*: they are masked to ``+inf`` so they can never be
    selected as a split.  When a node's records concentrate in a single
    grid interval, no valid boundary exists (``gini_min = inf``) but the
    interval's estimate stays finite — it then becomes an alive interval
    and the exact split is recovered from the buffered records, so deep
    nodes never lose splittability to a coarse grid.  A histogram with a
    single interval has neither boundaries nor finite estimates.
    """
    if not items:
        return []
    hists = [h for __, h in items]
    sizes = np.array([h.n_intervals for h in hists])
    counts = np.concatenate([h.counts for h in hists])
    with tracer.span("intervals.estimate", segments=len(items), rows=len(counts)):
        starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))
        ends = starts + sizes - 1
        seg = np.repeat(np.arange(len(items)), sizes)
        last = np.zeros(len(counts), dtype=bool)
        last[ends] = True
        pops = counts.sum(axis=1)
        vmin = np.concatenate([h.vmin for h in hists])
        vmax = np.concatenate([h.vmax for h in hists])
        atomic = (pops > 0) & (vmin == vmax)

        cum, __, totals = segment_frame(counts, starts)
        n = totals.sum(axis=1)
        node_g = np.asarray(gini(totals[starts]))
        # Row k's partition gini at its upper edge: the boundary between
        # rows k and k + 1, or the degenerate outer edge on a segment's
        # last row.
        raw_bg = np.asarray(gini_partition(cum, totals - cum))
        left_sizes = cum.sum(axis=1)
        valid = (left_sizes > 0) & (left_sizes < n) & ~last
        bg = np.where(valid, raw_bg, np.inf)
        est = interval_estimates(counts, atomic=atomic, starts=starts)
        # Footnote 1 of the paper proves the gini index can decrease by
        # less than 2*N_i/N inside an interval with N_i of the node's N
        # records, so the true interior minimum is bounded below by the
        # adjacent boundary ginis minus that slack.  Clamping the
        # hill-climb estimate with this bound eliminates spurious alive
        # intervals far from the optimum (the heuristic climb can
        # otherwise undershoot badly in dense intervals).  Degenerate
        # outer boundaries truly evaluate to the node's own gini.
        right_adj = np.where(last, node_g[seg], raw_bg)
        left_adj = np.empty_like(right_adj)
        left_adj[1:] = raw_bg[:-1]
        left_adj[starts] = node_g
        slack = 2.0 * pops / np.maximum(n, 1.0)
        est = np.maximum(est, np.minimum(left_adj, right_adj) - slack)
        # Empty intervals cannot hold a split point.
        est = np.where((pops > 0) & (sizes[seg] > 1), est, np.inf)

        gini_min = np.minimum.reduceat(bg, starts)
        # Leftmost row attaining its segment's minimum (ties break left).
        hit = np.where(bg == gini_min[seg], np.arange(len(counts)), len(counts))
        best = np.where(
            np.isfinite(gini_min), np.minimum.reduceat(hit, starts) - starts, -1
        )
        est_min = np.minimum.reduceat(est, starts)
    return [
        AttributeAnalysis(
            attr=attr,
            edges=hist.edges,
            boundary_gini=bg[lo:hi],
            gini_min=float(gini_min[s]),
            best_boundary=int(best[s]),
            est=est[lo : hi + 1],
            est_min=float(est_min[s]),
            node_gini=float(node_g[s]),
        )
        for s, ((attr, hist), lo, hi) in enumerate(zip(items, starts, ends))
    ]


def select_alive_intervals(analysis: AttributeAnalysis, max_alive: int) -> list[int]:
    """Alive intervals of one attribute, per the CMP-S restrictions.

    An interval is a candidate when its estimate is strictly below the
    attribute's best boundary gini; at most ``max_alive`` candidates with
    the lowest estimates are kept.  Whenever any interval stays alive, the
    interval adjacent to the best boundary is force-included — this is the
    paper's alive interval (i) ("the one whose left boundary or right
    boundary has gini_min"), and it guarantees the best boundary coincides
    with a preliminary-region edge so the deferred exact split never has to
    cut a preliminary subnode in two.

    Returns an empty list when no interval estimate beats the best
    boundary, in which case the boundary split is already exact.
    """
    if max_alive < 0:
        raise ValueError("max_alive must be non-negative")
    if max_alive == 0 or not analysis.splittable:
        return []
    candidates = set(
        int(i) for i in np.nonzero(analysis.est < analysis.gini_min - _EPS)[0]
    )
    if not candidates:
        return []
    forced: int | None = None
    if analysis.has_boundaries:
        k = analysis.best_boundary
        left_est = analysis.est[k]
        right_est = analysis.est[k + 1] if k + 1 < len(analysis.est) else np.inf
        forced = k if left_est <= right_est else k + 1
        candidates.add(forced)
    if len(candidates) <= max_alive:
        return sorted(candidates)
    ranked = sorted(candidates, key=lambda i: (analysis.est[i], i))
    keep = set(ranked[:max_alive])
    if forced is not None and forced not in keep:
        keep.discard(ranked[max_alive - 1])
        keep.add(forced)
    return sorted(keep)


def choose_split_attribute(
    analyses: list[AttributeAnalysis], max_alive: int
) -> AttributeAnalysis | None:
    """Pick the splitting attribute and populate its alive intervals.

    Returns ``None`` when no attribute offers any boundary to split on.
    Alive intervals of losing attributes are pruned (left empty), per the
    paper.
    """
    viable = [a for a in analyses if a.splittable]
    if not viable:
        return None
    winner = min(viable, key=lambda a: (a.score, a.attr))
    winner.alive = select_alive_intervals(winner, max_alive)
    return winner
