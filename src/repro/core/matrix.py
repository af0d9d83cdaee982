"""Bivariate histogram matrices (§2.2, Figure 5).

CMP-B keeps, at every node, one two-dimensional class histogram per
continuous attribute pair ``(x, y)`` where ``x`` — the node's predicted
next split attribute — is shared by every matrix of the node.  Cell
``(i, j)`` of matrix ``M`` counts, per class, the records whose ``x`` value
falls in x-interval ``i`` and whose ``y`` value falls in y-interval ``j``.

Because every matrix shares the X axis, a split on the X axis turns each
matrix into two sub-matrices (Figure 6) — the subnodes' histograms are
available *without a scan*, which is what lets CMP-B grow two tree levels
per pass.  Marginal views (:meth:`MatrixSet.x_marginal`,
:meth:`MatrixSet.y_marginal`) are materialized as ordinary
:class:`~repro.core.histogram.ClassHistogram` objects so the univariate
analysis machinery (boundary ginis, interval estimates, alive selection)
applies unchanged.

Per-interval value extrema are tracked on both axes for atomic-interval
detection; a slice's extrema conservatively reuse the unsliced ones (an
interval atomic over the whole node is atomic in any slice, never the
other way around — see ``estimation.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.arena import ArenaPart
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.data.schema import Schema


#: Count dtype of a standalone cube: 4 bytes per cell, the paper's memory
#: story (Fig. 19).  Integer, not float32, which stops counting at 2**24.
#: A level arena fixes its cubes' dtype from the table size instead.
_COUNT_DTYPE = np.int32


class AxisStats:
    """Per-interval value extrema along one axis."""

    def __init__(self, n_intervals: int, vmin=None, vmax=None) -> None:
        self.vmin = np.full(n_intervals, np.inf) if vmin is None else vmin
        self.vmax = np.full(n_intervals, -np.inf) if vmax is None else vmax


class HistogramMatrix:
    """One ``(x, y)`` bivariate class histogram, in its own int32 cube
    and y extrema unless handed them (a level arena's views)."""

    def __init__(
        self,
        x_attr: int,
        y_attr: int,
        x_edges: np.ndarray,
        y_edges: np.ndarray,
        n_classes: int,
        counts: np.ndarray | None = None,
        y_stats: AxisStats | None = None,
    ) -> None:
        self.x_attr = x_attr
        self.y_attr = y_attr
        self.x_edges = np.ascontiguousarray(x_edges, dtype=np.float64)
        self.y_edges = np.ascontiguousarray(y_edges, dtype=np.float64)
        self.n_classes = n_classes
        # Integer counts (the paper's implementation uses 4-byte ints;
        # the matrices dominate CMP's memory, Figure 19).
        shape = (len(self.x_edges) + 1, len(self.y_edges) + 1, n_classes)
        self.counts = np.zeros(shape, dtype=_COUNT_DTYPE) if counts is None else counts
        self.y_stats = AxisStats(len(self.y_edges) + 1) if y_stats is None else y_stats

    @property
    def qx(self) -> int:
        """Number of x intervals."""
        return self.counts.shape[0]

    @property
    def qy(self) -> int:
        """Number of y intervals."""
        return self.counts.shape[1]

    def y_marginal_counts(self, x_lo: int = 0, x_hi: int | None = None) -> np.ndarray:
        """``(qy, c)`` class counts of y intervals, restricted to x columns
        ``[x_lo, x_hi)`` (the whole axis by default)."""
        return self.counts[x_lo : x_hi if x_hi is not None else self.qx].sum(axis=0)

    def x_marginal_counts(self) -> np.ndarray:
        """``(qx, c)`` class counts of x intervals."""
        return self.counts.sum(axis=1)


def pseudo_histogram(
    counts: np.ndarray,
    edges: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    n_classes: int,
) -> ClassHistogram:
    """Materialize a marginal view as a ClassHistogram (no data pass)."""
    return ClassHistogram(
        edges,
        n_classes,
        np.asarray(counts, dtype=np.float64),
        np.asarray(vmin, dtype=np.float64),
        np.asarray(vmax, dtype=np.float64),
    )


@dataclass(eq=False)
class MatrixSet(ArenaPart):
    """All histograms of one CMP-B node (or preliminary part).

    One :class:`HistogramMatrix` per continuous attribute other than
    ``x_attr`` (all sharing ``x_attr`` as their X axis), a plain
    :class:`CategoryHistogram` per categorical attribute, and shared
    X-axis extrema.  Laid out in a level arena, every array is a view
    of it.  A *planned* set (:meth:`planned`) holds only its ``grids``,
    the schema and per-attribute edges, until its level is laid out.
    """

    x_attr: int
    x_edges: np.ndarray
    n_classes: int
    matrices: dict[int, HistogramMatrix] = field(default_factory=dict)
    categorical: dict[int, CategoryHistogram] = field(default_factory=dict)
    x_stats: AxisStats | None = None
    class_counts: np.ndarray | None = None
    grids: tuple[Schema, dict[int, np.ndarray]] | None = field(default=None, repr=False)

    @classmethod
    def planned(
        cls, schema: Schema, x_attr: int, edges: dict[int, np.ndarray]
    ) -> "MatrixSet":
        """An empty set on the given per-attribute grids, laid out later
        with its level (or alone, on first use)."""
        if not schema.attributes[x_attr].is_continuous:
            raise ValueError("the shared X axis must be a continuous attribute")
        return cls(
            x_attr=x_attr,
            x_edges=np.ascontiguousarray(edges[x_attr], dtype=np.float64),
            n_classes=schema.n_classes,
            grids=(schema, edges),
        )

    @classmethod
    def create(
        cls, schema: Schema, x_attr: int, edges: dict[int, np.ndarray]
    ) -> "MatrixSet":
        """Fresh, empty matrix set on the given per-attribute grids: an
        arena of one part."""
        ms = cls.planned(schema, x_attr, edges)
        ms.laid_out()
        return ms

    @property
    def qx(self) -> int:
        """Number of x intervals."""
        return len(self.x_edges) + 1

    def _spec(self) -> tuple:
        schema, edges = self.grids
        conts = [
            (j, np.ascontiguousarray(edges[j], dtype=np.float64))
            for j in schema.continuous_indices()
            if j != self.x_attr
        ]
        cats = [
            (j, a.cardinality)
            for j, a in enumerate(schema.attributes)
            if not a.is_continuous
        ]
        return self.n_classes, (self.x_attr, self.x_edges), conts, cats

    def _bind(self, views: list) -> None:
        c, __, conts, cats = self._spec()
        it = iter(views)
        self.class_counts = next(it)
        self.x_stats = AxisStats(self.qx, *next(it))
        self.matrices = {
            j: HistogramMatrix(
                self.x_attr, j, self.x_edges, y_edges, c, next(it),
                AxisStats(len(y_edges) + 1, *next(it)),
            )
            for j, y_edges in conts
        }
        self.categorical = {j: CategoryHistogram(k, c, next(it)) for j, k in cats}

    def update(
        self, X: np.ndarray, y: np.ndarray, weights: None = None, arena=None
    ) -> None:
        """Add a batch of records to every histogram of the set.

        One native call on the set's slice of its level's plan fills
        them all when the kernels are available; the arena's numpy body
        is the reference.  ``arena`` takes the counts instead of the
        set's own: a worker's delta.  Matrix sets count unweighted
        records.
        """
        if weights is not None:
            raise ValueError("a matrix set counts unweighted records")
        self._accumulate(X, y, None, arena)

    def merge_from(self, other: "MatrixSet") -> None:
        """Accumulate a structurally identical matrix set: a row-range
        add in the arena."""
        if other.x_attr != self.x_attr:
            raise ValueError("matrix sets must share the X attribute to merge")
        self._merge_rows(other)

    # -- marginal views --------------------------------------------------------

    def _any_matrix(self) -> HistogramMatrix:
        if not self.matrices:
            raise ValueError("a MatrixSet needs at least two continuous attributes")
        return next(iter(self.matrices.values()))

    def x_marginal(self, x_lo: int = 0, x_hi: int | None = None) -> ClassHistogram:
        """X-axis marginal histogram, optionally restricted to a column slice.

        The returned histogram keeps the full x grid; columns outside the
        slice are zeroed, so interval indices remain comparable across
        slices of the same node.
        """
        assert self.x_stats is not None
        counts = self._any_matrix().x_marginal_counts()
        if x_lo != 0 or x_hi is not None:
            hi = x_hi if x_hi is not None else self.qx
            masked = np.zeros_like(counts)
            masked[x_lo:hi] = counts[x_lo:hi]
            counts = masked
        return pseudo_histogram(
            counts, self.x_edges, self.x_stats.vmin, self.x_stats.vmax, self.n_classes
        )

    def y_marginal(
        self, y_attr: int, x_lo: int = 0, x_hi: int | None = None
    ) -> ClassHistogram:
        """Y marginal of one matrix, optionally conditioned on an x slice."""
        m = self.matrices[y_attr]
        counts = m.y_marginal_counts(x_lo, x_hi)
        return pseudo_histogram(
            counts, m.y_edges, m.y_stats.vmin, m.y_stats.vmax, self.n_classes
        )

    def x_marginal_given_y(
        self, y_attr: int, y_lo: int, y_hi: int | None = None
    ) -> ClassHistogram:
        """X marginal conditioned on a row slice of matrix ``(x, y_attr)``.

        This is the Figure 7 case of a split on a Y axis: the ``(x, b)``
        matrix can be sliced along ``b``, giving the subnode's exact
        marginal over the X attribute.
        """
        assert self.x_stats is not None
        m = self.matrices[y_attr]
        hi = y_hi if y_hi is not None else m.qy
        counts = m.counts[:, y_lo:hi].sum(axis=1)
        return pseudo_histogram(
            counts, self.x_edges, self.x_stats.vmin, self.x_stats.vmax, self.n_classes
        )

    def y_marginal_rows(
        self, y_attr: int, y_lo: int, y_hi: int | None = None
    ) -> ClassHistogram:
        """Y marginal of ``y_attr`` restricted to its own row slice.

        Rows outside the slice are zeroed so interval indices stay
        comparable with the unsliced marginal.
        """
        m = self.matrices[y_attr]
        counts = m.y_marginal_counts()
        hi = y_hi if y_hi is not None else m.qy
        masked = np.zeros_like(counts)
        masked[y_lo:hi] = counts[y_lo:hi]
        return pseudo_histogram(
            masked, m.y_edges, m.y_stats.vmin, m.y_stats.vmax, self.n_classes
        )
