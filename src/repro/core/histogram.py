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


def class_labels(labels, n_classes: int) -> np.ndarray:
    """``labels`` as an array, each checked to lie in ``[0, n_classes)``
    (``ValueError`` otherwise, as the fused kernels raise)."""
    labels = np.asarray(labels)
    if labels.min() < 0 or labels.max() >= n_classes:
        raise ValueError("class label outside [0, n_classes)")
    return labels


def _tally(counts: np.ndarray, rows: np.ndarray, labels: np.ndarray, weights) -> None:
    """``counts[rows, labels] += weights`` (1 per record without).

    ``rows`` index the flattened leading axes of ``counts``; they are
    overwritten.  One ``bincount`` does the scatter-add: the counts are
    integer-valued, so any summation order is exact.
    """
    rows *= counts.shape[-1]
    rows += labels
    counts += np.bincount(rows, weights, minlength=counts.size).reshape(counts.shape)


def fill_class(
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    edges: np.ndarray,
    values: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
    lead: np.ndarray | None = None,
) -> None:
    """Fold a non-empty batch into one class histogram: per-bin class
    counts and per-bin value extrema (NaN sorts into the last bin and is
    ignored by the extrema).

    The numpy body of :meth:`ClassHistogram.update` and of the level
    arena's reference fill, which the fused kernels replicate.  With
    ``lead`` (each record's x bin), ``counts`` is a matrix's ``(qx, q,
    c)`` cube.
    """
    labels = class_labels(labels, counts.shape[-1])
    values = np.asarray(values)
    bins = bin_index(values, edges)
    np.fmin.at(vmin, bins, values)
    np.fmax.at(vmax, bins, values)
    _tally(counts, bins if lead is None else lead * len(vmin) + bins, labels, weights)


def category_rows(codes: np.ndarray, k: int) -> np.ndarray:
    """Category codes as a fresh array of row indices of a ``k``-category
    histogram.  Codes convert like the fused kernels' C cast (truncation
    toward zero) and index like numpy: negative codes wrap, while a code
    outside ``[-k, k)`` after truncation, or one the cast cannot convert
    (NaN, infinite), raises ``IndexError``."""
    try:
        with np.errstate(invalid="raise"):
            rows = np.asarray(codes).astype(np.intp)
    except FloatingPointError:  # NaN, infinite or beyond int64
        raise IndexError("category code out of bounds for histogram counts") from None
    lo, hi = rows.min(), rows.max()
    if lo < -k or hi >= k:
        raise IndexError("category code out of bounds for histogram counts")
    if lo < 0:
        rows[rows < 0] += k
    return rows


def fill_category(
    counts: np.ndarray,
    rows: np.ndarray,
    labels: np.ndarray,
    weights: np.ndarray | None = None,
) -> None:
    """Fold a non-empty batch, checked by :func:`category_rows` (whose
    rows this overwrites) and :func:`class_labels`, into one category
    histogram's ``(k, c)`` class counts.  The numpy body of
    :meth:`CategoryHistogram.update` and of the level arena's reference
    fill."""
    _tally(counts, rows, labels, weights)


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

    def update(self, values: np.ndarray, labels: np.ndarray) -> None:
        """Add a batch of records to the histogram (:func:`fill_class`)."""
        if len(values):
            fill_class(self.counts, self.vmin, self.vmax, self.edges, values, labels)

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

    def update(self, codes: np.ndarray, labels: np.ndarray) -> None:
        """Add a batch of records, ``codes`` their category codes
        (:func:`category_rows` says which are valid)."""
        if len(codes):
            labels = class_labels(labels, self.counts.shape[-1])
            fill_category(self.counts, category_rows(codes, self.n_categories), labels)

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
