"""Single-attribute class histograms (CMP-S / CLOUDS data structure).

A :class:`ClassHistogram` holds, for one continuous attribute at one tree
node, the per-interval per-class record counts.  Intervals follow the
equal-depth discretization of :mod:`repro.data.discretize`; interval
boundaries are the only points where the gini index is computed exactly.

Categorical attributes use :class:`CategoryHistogram`: one bin per category,
no ordering, no alive intervals — the best binary *subset* split is computed
directly from the counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import native_scan
from repro.core.gini import boundary_ginis, gini_partition
from repro.data.discretize import bin_index


class ClassHistogram:
    """Per-interval class counts for one continuous attribute, in its
    own arrays unless handed them (a level arena's views)."""

    def __init__(
        self,
        edges: np.ndarray,
        n_classes: int,
        counts: np.ndarray | None = None,
        vmin: np.ndarray | None = None,
        vmax: np.ndarray | None = None,
    ) -> None:
        self.edges = np.ascontiguousarray(edges, dtype=np.float64)
        if self.edges.ndim != 1:
            raise ValueError("edges must be 1-D")
        self.n_classes = int(n_classes)
        q = len(self.edges) + 1
        self.counts = np.zeros((q, self.n_classes)) if counts is None else counts
        # Per-interval value extrema; an interval with vmin == vmax holds a
        # single distinct value and therefore no interior split point.
        self.vmin = np.full(q, np.inf) if vmin is None else vmin
        self.vmax = np.full(q, -np.inf) if vmax is None else vmax

    @property
    def n_intervals(self) -> int:
        """Number of intervals."""
        return self.counts.shape[0]

    @property
    def n_records(self) -> float:
        """Total number of records counted so far."""
        return float(self.counts.sum())

    def update(
        self,
        values: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Add a batch of records to the histogram (vectorized).

        ``weights`` are per-record multiplicities (bootstrap draw
        counts): each record contributes its weight instead of 1.
        Integer-valued float64 weights keep the counts integer-valued,
        hence exact — bit-identical to repeating each record ``weight``
        times.  Callers must drop zero-weight records beforehand; the
        extrema folds see every value passed in.
        """
        if len(values) == 0:
            return
        values = np.asarray(values)
        if native_scan.hist_accum(
            values, labels, self.edges, self.counts, self.vmin, self.vmax, weights
        ):
            return
        bins = bin_index(values, self.edges)
        if weights is None:
            np.add.at(self.counts, (bins, np.asarray(labels)), 1.0)
        else:
            np.add.at(
                self.counts,
                (bins, np.asarray(labels)),
                np.asarray(weights, dtype=np.float64),
            )
        np.fmin.at(self.vmin, bins, values)
        np.fmax.at(self.vmax, bins, values)

    def atomic_intervals(self) -> np.ndarray:
        """Boolean mask of populated intervals holding one distinct value."""
        populated = self.counts.sum(axis=1) > 0
        return populated & (self.vmin == self.vmax)

    def totals(self) -> np.ndarray:
        """Class counts of the whole node."""
        return self.counts.sum(axis=0)

    def cumulative(self) -> np.ndarray:
        """``(q, c)`` cumulative class counts at each interval's upper edge."""
        return np.cumsum(self.counts, axis=0)

    def boundary_ginis(self) -> np.ndarray:
        """``gini^D`` at each of the ``q - 1`` inner boundaries."""
        if self.n_intervals < 2:
            return np.empty(0, dtype=np.float64)
        cum = self.cumulative()[:-1]
        return boundary_ginis(cum, self.totals())

    def cum_below(self, interval: int) -> np.ndarray:
        """Cumulative class counts strictly below ``interval``."""
        if interval == 0:
            return np.zeros(self.n_classes, dtype=np.float64)
        return self.cumulative()[interval - 1]


class CategoryHistogram:
    """Per-category class counts for one categorical attribute."""

    def __init__(
        self, n_categories: int, n_classes: int, counts: np.ndarray | None = None
    ) -> None:
        if n_categories < 1:
            raise ValueError("need at least one category")
        self.counts = np.zeros((n_categories, n_classes)) if counts is None else counts

    @property
    def n_categories(self) -> int:
        """Number of category bins."""
        return self.counts.shape[0]

    def update(
        self,
        codes: np.ndarray,
        labels: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Add a batch of records (``codes`` are integer category codes).

        ``weights`` follow the same multiplicity contract as
        :meth:`ClassHistogram.update`.
        """
        if len(codes) == 0:
            return
        codes = np.asarray(codes)
        if codes.dtype == np.float64 and native_scan.cat_accum(
            codes, labels, self.counts, weights
        ):
            return
        if weights is None:
            np.add.at(
                self.counts, (np.asarray(codes, dtype=np.intp), np.asarray(labels)), 1.0
            )
        else:
            np.add.at(
                self.counts,
                (np.asarray(codes, dtype=np.intp), np.asarray(labels)),
                np.asarray(weights, dtype=np.float64),
            )

    def totals(self) -> np.ndarray:
        """Class counts of the whole node."""
        return self.counts.sum(axis=0)

    def best_subset_split(
        self, criterion=None
    ) -> tuple[np.ndarray, float]:
        """Best binary subset split ``category in L`` of this attribute.

        For two classes the split is exact (Breiman's ordering theorem:
        sorting categories by their class-1 proportion and scanning the
        prefix boundaries covers an optimal subset).  For more classes the
        same ordering is applied per class and the best prefix over all
        orderings is returned — a standard high-quality heuristic, used
        identically by every algorithm in this repository.

        Returns ``(left_mask, gini)`` where ``left_mask[k]`` is True when
        category ``k`` routes left.  Categories with no records stay on the
        right side.  This is the numpy reference of the native
        ``cmp_subset_splits`` kernel (:func:`best_subset_splits`).
        """
        if criterion is None:
            partition = gini_partition
        else:
            from repro.core.impurity import partition_impurity

            def partition(left, right):
                return partition_impurity(left, right, criterion)

        counts = self.counts
        totals = counts.sum(axis=0)
        n_per_cat = counts.sum(axis=1)
        present = n_per_cat > 0
        if present.sum() < 2:
            raise ValueError("fewer than two populated categories; no split")
        best_gini = np.inf
        best_mask: np.ndarray | None = None
        n_classes = counts.shape[1]
        with np.errstate(divide="ignore", invalid="ignore"):
            for cls in range(n_classes):
                frac = np.where(present, counts[:, cls] / np.maximum(n_per_cat, 1.0), np.inf)
                order = np.argsort(frac, kind="stable")
                ordered = counts[order]
                cum = np.cumsum(ordered, axis=0)[:-1]
                if len(cum) == 0:
                    continue
                ginis = np.asarray(
                    partition(cum, totals[None, :] - cum), dtype=np.float64
                )
                # Skip degenerate prefixes (empty side).
                sizes = cum.sum(axis=1)
                valid = (sizes > 0) & (sizes < totals.sum())
                if not np.any(valid):
                    continue
                ginis = np.where(valid, ginis, np.inf)
                k = int(np.argmin(ginis))
                if ginis[k] < best_gini:
                    best_gini = float(ginis[k])
                    mask = np.zeros(self.n_categories, dtype=bool)
                    mask[order[: k + 1]] = True
                    mask &= present
                    best_mask = mask
        if best_mask is None:
            raise ValueError("no valid subset split found")
        return best_mask, best_gini


@dataclass(frozen=True)
class SubsetSplit:
    """One categorical attribute's best subset split at one node.

    ``mask`` is ``None`` (and ``gini`` infinite) when the attribute has
    fewer than two populated categories, so it offers no split.
    """

    attr: int
    mask: np.ndarray | None
    gini: float


def best_subset_splits(
    items: list[tuple[int, CategoryHistogram]],
) -> list[SubsetSplit]:
    """Every ``(attr, histogram)`` pair's best subset split, in one call.

    A tree level's categorical histograms share one class count, so the
    native ``cmp_subset_splits`` kernel answers all of them at once;
    :meth:`CategoryHistogram.best_subset_split` answers them one by one
    when it declines.
    """
    if not items:
        return []
    answers = native_scan.subset_splits([h.counts for __, h in items])
    if answers is None:
        answers = []
        for __, h in items:
            try:
                answers.append(h.best_subset_split())
            except ValueError:
                answers.append((None, np.inf))
    return [SubsetSplit(j, mask, g) for (j, __), (mask, g) in zip(items, answers)]
