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

from repro.core import native_scan
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.data.discretize import bin_index
from repro.data.schema import Schema


#: Narrow count dtype: 4 bytes per cell, the paper's memory story (Fig. 19).
#: Integer, not float32 — float32 silently stops incrementing once a cell
#: reaches 2**24 records, corrupting counts on exactly the large-data
#: regime the paper targets.
_COUNT_DTYPE = np.int32
#: Widened dtype once a matrix has absorbed more records than int32 holds.
_WIDE_DTYPE = np.int64
_NARROW_MAX = np.iinfo(_COUNT_DTYPE).max


class AxisStats:
    """Per-interval value extrema along one axis."""

    def __init__(self, n_intervals: int) -> None:
        self.vmin = np.full(n_intervals, np.inf)
        self.vmax = np.full(n_intervals, -np.inf)

    def update(self, bins: np.ndarray, values: np.ndarray) -> None:
        """Fold a batch of binned values into the extrema."""
        if len(values) == 0:
            return
        np.minimum.at(self.vmin, bins, values)
        np.maximum.at(self.vmax, bins, values)

    def merge_from(self, other: "AxisStats") -> None:
        """Combine extrema with another axis of identical shape."""
        np.minimum(self.vmin, other.vmin, out=self.vmin)
        np.maximum(self.vmax, other.vmax, out=self.vmax)


class HistogramMatrix:
    """One ``(x, y)`` bivariate class histogram."""

    def __init__(
        self,
        x_attr: int,
        y_attr: int,
        x_edges: np.ndarray,
        y_edges: np.ndarray,
        n_classes: int,
    ) -> None:
        self.x_attr = x_attr
        self.y_attr = y_attr
        self.x_edges = np.asarray(x_edges, dtype=np.float64)
        self.y_edges = np.asarray(y_edges, dtype=np.float64)
        self.n_classes = n_classes
        # 4-byte integer counts (the paper's implementation uses 4-byte
        # ints; the matrices dominate CMP's memory, Figure 19).  Exact up
        # to 2**31 - 1 per cell; ``_n_added`` tracks the total records ever
        # absorbed so the cube widens to int64 before any cell could
        # overflow — counting never saturates or wraps.
        self.counts = np.zeros(
            (len(self.x_edges) + 1, len(self.y_edges) + 1, n_classes),
            dtype=_COUNT_DTYPE,
        )
        self._n_added = 0
        self.y_stats = AxisStats(len(self.y_edges) + 1)

    def clone_empty(self) -> "HistogramMatrix":
        """Structurally identical matrix with zero counts (worker deltas)."""
        return HistogramMatrix(
            self.x_attr, self.y_attr, self.x_edges, self.y_edges, self.n_classes
        )

    @property
    def qx(self) -> int:
        """Number of x intervals."""
        return self.counts.shape[0]

    @property
    def qy(self) -> int:
        """Number of y intervals."""
        return self.counts.shape[1]

    def nbytes(self) -> int:
        """Memory footprint of the count cube."""
        return self.counts.nbytes

    def _widen_for(self, incoming: int) -> bool:
        """Switch to the wide dtype before cell counts could exceed int32.

        A cell can never hold more than the matrix's total record count,
        so widening when ``_n_added`` approaches the narrow maximum keeps
        every addition exact without scanning the cube for its max.
        Returns True when it replaced the count cube.
        """
        self._n_added += incoming
        if self.counts.dtype != _WIDE_DTYPE and self._n_added > _NARROW_MAX:
            self.counts = self.counts.astype(_WIDE_DTYPE)
            return True
        return False

    def update_binned(
        self, x_bins: np.ndarray, y_values: np.ndarray, labels: np.ndarray
    ) -> None:
        """Add records whose x-interval indices are already computed."""
        if len(labels) == 0:
            return
        self._widen_for(len(labels))
        self._add_binned(x_bins, y_values, labels)

    def _add_binned(
        self, x_bins: np.ndarray, y_values: np.ndarray, labels: np.ndarray
    ) -> None:
        """The numpy accumulation of :meth:`update_binned`, once widened."""
        y_values = np.asarray(y_values)
        y_bins = bin_index(y_values, self.y_edges)
        np.add.at(self.counts, (x_bins, y_bins, np.asarray(labels)), 1)
        self.y_stats.update(y_bins, y_values)

    def y_marginal_counts(self, x_lo: int = 0, x_hi: int | None = None) -> np.ndarray:
        """``(qy, c)`` class counts of y intervals, restricted to x columns
        ``[x_lo, x_hi)`` (the whole axis by default)."""
        return self.counts[x_lo : x_hi if x_hi is not None else self.qx].sum(axis=0)

    def x_marginal_counts(self) -> np.ndarray:
        """``(qx, c)`` class counts of x intervals."""
        return self.counts.sum(axis=1)

    def merge_from(self, other: "HistogramMatrix") -> None:
        """Accumulate another matrix with identical structure (widening
        out of the narrow dtype first when the sum could overflow it)."""
        if other.counts.shape != self.counts.shape:
            raise ValueError("matrices must share shape to merge")
        self._widen_for(other._n_added)
        self.counts += other.counts
        self.y_stats.merge_from(other.y_stats)


def pseudo_histogram(
    counts: np.ndarray,
    edges: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    n_classes: int,
) -> ClassHistogram:
    """Materialize a marginal view as a ClassHistogram (no data pass)."""
    hist = ClassHistogram(edges, n_classes)
    hist.counts = np.asarray(counts, dtype=np.float64)
    hist.vmin = np.asarray(vmin, dtype=np.float64)
    hist.vmax = np.asarray(vmax, dtype=np.float64)
    return hist


@dataclass
class MatrixSet:
    """All histograms of one CMP-B node (or preliminary part).

    One :class:`HistogramMatrix` per continuous attribute other than
    ``x_attr`` (all sharing ``x_attr`` as their X axis), a plain
    :class:`CategoryHistogram` per categorical attribute, and shared
    X-axis extrema.
    """

    x_attr: int
    x_edges: np.ndarray
    n_classes: int
    matrices: dict[int, HistogramMatrix] = field(default_factory=dict)
    categorical: dict[int, CategoryHistogram] = field(default_factory=dict)
    x_stats: AxisStats | None = None
    class_counts: np.ndarray | None = None

    #: The fused kernel's pointer plan, built on first update and dropped
    #: whenever a cube widens.  Never pickled nor shared by clones.
    _plan = None

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    @classmethod
    def create(
        cls, schema: Schema, x_attr: int, edges: dict[int, np.ndarray]
    ) -> "MatrixSet":
        """Fresh, empty matrix set on the given per-attribute grids."""
        if not schema.attributes[x_attr].is_continuous:
            raise ValueError("the shared X axis must be a continuous attribute")
        ms = cls(x_attr=x_attr, x_edges=edges[x_attr], n_classes=schema.n_classes)
        ms.x_stats = AxisStats(len(ms.x_edges) + 1)
        ms.class_counts = np.zeros(schema.n_classes, dtype=np.float64)
        for j, attr in enumerate(schema.attributes):
            if j == x_attr:
                continue
            if attr.is_continuous:
                ms.matrices[j] = HistogramMatrix(
                    x_attr, j, edges[x_attr], edges[j], schema.n_classes
                )
            else:
                ms.categorical[j] = CategoryHistogram(
                    attr.cardinality, schema.n_classes
                )
        return ms

    def clone_empty(self) -> "MatrixSet":
        """Structurally identical, empty matrix set.

        Scan workers accumulate into private clones which are merged back
        (``merge_from``) in chunk order; grids and attribute layout are
        shared with the original, counts start at zero.
        """
        ms = MatrixSet(
            x_attr=self.x_attr, x_edges=self.x_edges, n_classes=self.n_classes
        )
        ms.x_stats = AxisStats(len(self.x_edges) + 1)
        ms.class_counts = np.zeros(self.n_classes, dtype=np.float64)
        for j, m in self.matrices.items():
            ms.matrices[j] = m.clone_empty()
        for j, h in self.categorical.items():
            ms.categorical[j] = CategoryHistogram(
                h.n_categories, h.counts.shape[1]
            )
        return ms

    @property
    def qx(self) -> int:
        """Number of x intervals."""
        return len(self.x_edges) + 1

    def nbytes(self) -> int:
        """Memory footprint of all matrices and histograms."""
        total = sum(m.nbytes() for m in self.matrices.values())
        total += sum(h.nbytes() for h in self.categorical.values())
        return total

    def update(self, X: np.ndarray, y: np.ndarray) -> None:
        """Add a batch of records to every histogram of the set.

        One native call fills them all when the kernels are available;
        the numpy body below is the reference.
        """
        if len(y) == 0:
            return
        assert self.class_counts is not None and self.x_stats is not None
        for m in self.matrices.values():
            if m._widen_for(len(y)):
                self._plan = None
        if self._plan is None:
            self._plan = native_scan.mset_plan(
                self.class_counts,
                self.x_attr,
                self.x_edges,
                self.x_stats,
                list(self.matrices.items()),
                list(self.categorical.items()),
            )
        if native_scan.fused_accum(self._plan, X, y):
            return
        self.class_counts += np.bincount(y, minlength=self.n_classes)
        xv = X[:, self.x_attr]
        x_bins = bin_index(xv, self.x_edges)
        self.x_stats.update(x_bins, xv)
        for j, m in self.matrices.items():
            m._add_binned(x_bins, X[:, j], y)
        for j, h in self.categorical.items():
            h.update(X[:, j], y)

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

    def merge_from(self, other: "MatrixSet") -> None:
        """Accumulate a structurally identical matrix set."""
        if other.x_attr != self.x_attr:
            raise ValueError("matrix sets must share the X attribute to merge")
        assert self.class_counts is not None and other.class_counts is not None
        assert self.x_stats is not None and other.x_stats is not None
        self.class_counts += other.class_counts
        self.x_stats.merge_from(other.x_stats)
        for j, m in self.matrices.items():
            m.merge_from(other.matrices[j])
        for j, h in self.categorical.items():
            h.merge_from(other.categorical[j])
        self._plan = None  # a cube may have widened
