"""The full CMP classifier: CMP-B plus linear-combination splits (§2.3).

When every univariate split at a node is poor — the best gini stays above
``linear_trigger_gini`` — CMP inspects its bivariate matrices for a
splitting *line* (``giniNegativeSlope`` / ``giniPositiveSlope``,
:mod:`repro.core.linear`).  A line is adopted only when its three-way grid
gini undercuts the best univariate split by the paper's margin ("say 20%
smaller", ``linear_accept_ratio``).

The adopted line is carried as a projection band: records project onto
``w = a*x + b*y``; those inside the band (the cells the line crosses,
Figure 11's white cells) are buffered and the exact intercept ``c`` is
resolved from their sorted projections on the next scan — the same
deferred-exactness trick CMP uses for univariate splits.

On the paper's Function f (``age >= 40 and salary + commission >=
100 000``) this produces the two-level tree of Figure 13 where univariate
algorithms build the sprawling staircase of Figure 9.

Chunk-parallel scans (:mod:`repro.core.parallel`) need nothing extra
here: a linear pending routes through the generic :class:`BPending`
delta — the projection line is shared read-only, each worker buffers its
own slice of the band, and band buffers concatenate in chunk order — so
full-CMP trees are bit-identical for any worker count too.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.core.builder import PartState
from repro.core.cmp_b import BPending, CMPBBuilder
from repro.core.histogram import ClassHistogram
from repro.core.linear import best_linear_candidate
from repro.core.matrix import MatrixSet
from repro.core.predict import predict_split
from repro.core.splits import LinearSplit
from repro.core.tree import Node
from repro.data.schema import Schema


class CMPBuilder(CMPBBuilder):
    """The complete CMP classifier."""

    name = "CMP"

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
        cfg = self.config
        if node.n_records < cfg.linear_min_records:
            return None
        if best_univariate <= cfg.linear_trigger_gini:
            return None  # univariate splits are already good enough
        if not mset.matrices:
            return None
        cand = best_linear_candidate(mset)
        if cand is None:
            return None
        if cand.gini >= cfg.linear_accept_ratio * best_univariate:
            return None  # not "significantly smaller" (§2.3 Heuristics)
        if cand.gini >= node.gini - cfg.min_gain:
            return None

        proto = LinearSplit(
            mset.x_attr, cand.y_attr, b=cand.b, c=cand.c_hi, a=cand.a
        )
        try:
            predicted_x = predict_split({}, parent_scores)
        except ValueError:
            predicted_x = mset.x_attr
        child_edges = self._refined_edges(node_hists, node.n_records / 2)
        p = BPending(node=node, parent_slot=slot, linear=proto)
        p.zone_bounds = np.array([cand.c_lo, cand.c_hi])
        p.parts = [
            PartState.planned(next_slot(), schema, child_edges, predicted_x)
            for _ in range(2)
        ]
        return p
