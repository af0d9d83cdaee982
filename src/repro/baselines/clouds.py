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
    PendingSplit,
    alive_run_bounds,
    best_cut,
    make_part_hists,
    prefix_cuts,
)
from repro.core.cmp_s import (
    CMPSBuilder,
    best_categorical_split,
    continuous_analyses,
)
from repro.core.histogram import CategoryHistogram, ClassHistogram, SubsetSplit
from repro.core.intervals import AttributeAnalysis
from repro.core.parallel import ScanEngine
from repro.core.splits import CategoricalSplit, NumericSplit, Split
from repro.core.tree import Node, TreeAccount
from repro.data.schema import Schema
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk

_EPS = 1e-12


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
class _Candidate(PendingSplit):
    """A node's best split known exactly so far, not yet applied.

    ``best*`` start as the best boundary or categorical split; under SSE
    the records of the alive intervals in ``probes`` may beat it.  A
    candidate routes no records: :meth:`CloudsBuilder._ready` settles it
    with the exact pass before the level scan.
    """

    best: Split | None = None
    best_gini: float = np.inf
    best_left: np.ndarray = field(default_factory=lambda: np.empty(0))
    probes: list[_AliveProbe] = field(default_factory=list)


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
            p.best = NumericSplit(
                a.attr,
                float(a.edges[a.best_boundary]),
                n_candidates=max(1, len(a.edges)),
            )
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
        parts = [
            PartState(
                next_slot(),
                schema.n_classes,
                {} if self._stops(kid) else make_part_hists(schema, p.child_edges),
            )
            for kid in (node.left, node.right)
        ]
        if not any(part.hists for part in parts):
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
        next_slot: Callable[[], int],
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
            self._exact_pass(table, engine, stats, m.nid, waiting)
            pendings = {s: p for s, p in m.pendings.items() if s not in waiting}
            with stats.phase("resolve"):
                for slot, p in waiting.items():
                    node_id = p.node.node_id
                    stats.memory.allocate(
                        f"{m.prefix}probe/{node_id}",
                        sum(2 * v.nbytes for pr in p.probes for v in pr.values),
                    )
                    q = self._finish(p, m.next_slot, m.account, schema, stats)
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

    def _exact_pass(
        self,
        table,
        engine: ScanEngine,
        stats: BuildStats,
        nid: np.ndarray,
        waiting: dict[int, _Candidate],
    ) -> None:
        """One scan collecting the records inside every alive interval."""

        def route(chunk: ScanChunk, tgt: dict[int, list[_AliveProbe]]) -> None:
            slots = nid[chunk.start : chunk.stop]
            for slot, probes in tgt.items():
                mask = slots == slot
                if not mask.any():
                    continue
                X = chunk.X[mask]
                y = chunk.y[mask]
                for probe in probes:
                    v = X[:, probe.attr]
                    inside = (v > probe.lo) & (v <= probe.hi)
                    if inside.any():
                        probe.values.append(v[inside])
                        probe.labels.append(y[inside])

        live = {slot: p.probes for slot, p in waiting.items()}

        def merge(delta: dict[int, list[_AliveProbe]]) -> None:
            for slot, probes in delta.items():
                for probe, d in zip(live[slot], probes):
                    probe.values.extend(d.values)
                    probe.labels.extend(d.labels)

        with stats.phase("scan"):
            engine.scan(
                table,
                route=route,
                live=live,
                make_delta=lambda: {
                    slot: [replace(pr, values=[], labels=[]) for pr in probes]
                    for slot, probes in live.items()
                },
                merge_delta=merge,
            )
        stats.io.count_nid_swap(len(nid))

    def _finish(
        self,
        p: _Candidate,
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> PendingSplit | None:
        """Improve ``p`` with its probed records, then apply it."""
        totals = np.asarray(p.node.class_counts, dtype=np.float64)
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
