"""Linear-combination splits from histogram matrices (§2.3, Figures 11-12).

The full CMP uses its bivariate matrices to look for splitting *lines*
``a·x + b·y = c``.  A candidate line partitions the matrix cells into three
sets — under, above, and crossed-by-the-line (Figure 11) — and its quality
is the three-way weighted gini.  ``giniNegativeSlope`` (Figure 12) walks
the line's two intercepts greedily from ``(1, 1)``, each step extending
whichever intercept lowers the gini more, until no cell remains above the
line; ``giniPositiveSlope`` is the same walk on the matrix with its Y axis
flipped.

A winning line is converted to value space and carried by the builder as a
*projection band*: records with ``w = a·x + b·y`` at or below the band are
routed under, above the band over, and records inside the band — the
linear analog of an alive interval — are buffered so the exact intercept
``c`` is resolved from their sorted projections during the next scan.
This keeps linear splits exactly as cheap and exactly as exact as CMP's
univariate splits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import native_scan
from repro.core.gini import gini_partition_many
from repro.core.matrix import HistogramMatrix, MatrixSet

#: Safety cap on intercept-walk steps (the walk provably terminates well
#: below this; the cap guards degenerate grids).
_MAX_STEPS = 4096


@dataclass(frozen=True)
class GridLine:
    """A candidate line in grid coordinates: from ``(x, 0)`` to ``(0, y)``."""

    x: float
    y: float


def _require_proper(line: GridLine) -> None:
    """Reject degenerate lines (``x <= 0`` or ``y <= 0``).

    A degenerate intercept makes ``rhs = x * y`` collapse to zero and the
    cross-multiplied under/above tests misclassify cells — with both
    intercepts zero every cell satisfies *both* tests at once, so the
    partition double-counts.  The intercept walk starts at ``(1, 1)`` and
    only grows, so it can never propose such a line; anything else must
    not either.
    """
    if not (line.x > 0 and line.y > 0):
        raise ValueError(
            f"degenerate grid line ({line.x:g}, {line.y:g}): both "
            "intercepts must be positive"
        )


def classify_cells(qx: int, qy: int, line: GridLine) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Classify grid cells against a line (under / above / on).

    Cell ``(i, j)`` spans ``[i, i+1] x [j, j+1]`` in grid coordinates.  It
    is *under* when its far corner is on or below the line, *above* when
    its near corner is on or over it, and *on the line* otherwise.
    Comparisons use the cross-multiplied form so no division is involved.
    Degenerate lines raise ``ValueError`` (see :func:`_require_proper`).
    """
    _require_proper(line)
    i = np.arange(qx, dtype=np.float64)[:, None]
    j = np.arange(qy, dtype=np.float64)[None, :]
    rhs = line.x * line.y
    under = (i + 1) * line.y + (j + 1) * line.x <= rhs
    above = i * line.y + j * line.x >= rhs
    on = ~under & ~above
    return under, above, on


def line_gini(counts: np.ndarray, line: GridLine) -> float:
    """Three-way weighted gini of a matrix partitioned by ``line``."""
    qx, qy = counts.shape[0], counts.shape[1]
    under, above, on = classify_cells(qx, qy, line)
    parts = np.stack(
        [
            counts[under].sum(axis=0),
            counts[above].sum(axis=0),
            counts[on].sum(axis=0),
        ]
    )
    return gini_partition_many(parts)


class _WalkScratch:
    """Precomputed corner grids and flattened counts for one matrix."""

    def __init__(self, counts: np.ndarray) -> None:
        qx, qy, c = counts.shape
        self.qx, self.qy = qx, qy
        i = np.arange(qx, dtype=np.float64)[:, None]
        j = np.arange(qy, dtype=np.float64)[None, :]
        self.near_i = np.broadcast_to(i, (qx, qy)).reshape(-1)
        self.near_j = np.broadcast_to(j, (qx, qy)).reshape(-1)
        self.far_i = self.near_i + 1.0
        self.far_j = self.near_j + 1.0
        self.flat = counts.reshape(-1, c)
        self.total = self.flat.sum(axis=0)
        self.n = float(self.total.sum())

    def evaluate(self, line: GridLine) -> tuple[float, bool]:
        """Three-way gini of the line plus whether any cell is above it."""
        _require_proper(line)
        rhs = line.x * line.y
        under = (self.far_i * line.y + self.far_j * line.x) <= rhs
        above = (self.near_i * line.y + self.near_j * line.x) >= rhs
        cu = under.astype(np.float64) @ self.flat
        ca = above.astype(np.float64) @ self.flat
        co = self.total - cu - ca
        # Inline 3-way weighted gini: sum_p (n_p - sum(v^2)/n_p) / n.
        acc = 0.0
        for v in (cu, ca, co):
            s = v.sum()
            if s > 0:
                acc += s - float(v @ v) / s
        return acc / self.n if self.n > 0 else 0.0, bool(above.any())


def gini_slope_walk(counts: np.ndarray) -> tuple[float, GridLine]:
    """``giniNegativeSlope`` (Figure 12): greedy intercept walk.

    Returns the best (lowest) three-way gini seen along the walk and the
    line achieving it.  Flip the matrix's Y axis before calling to obtain
    ``giniPositiveSlope``.
    """
    counts = np.asarray(counts, dtype=np.float64)
    native = native_scan.slope_walk(counts, _MAX_STEPS)
    if native is not None:
        best_gini, bx, by = native
        return best_gini, GridLine(bx, by)
    scratch = _WalkScratch(counts)
    qx, qy = scratch.qx, scratch.qy
    # An intercept beyond qx + qy can no longer change which cells the line
    # crosses meaningfully; capping both bounds the walk at O(qx + qy).
    x_cap = float(qx + qy)
    y_cap = float(qx + qy)
    x, y = 1.0, 1.0
    line = GridLine(x, y)
    best_gini, above_any = scratch.evaluate(line)
    best_line = line
    for __ in range(_MAX_STEPS):
        if not above_any or (x >= x_cap and y >= y_cap):
            break  # the line no longer partitions the matrix into 3 parts
        linex = GridLine(x + 1.0, y) if x < x_cap else None
        liney = GridLine(x, y + 1.0) if y < y_cap else None
        gx, ax = scratch.evaluate(linex) if linex else (np.inf, above_any)
        gy, ay = scratch.evaluate(liney) if liney else (np.inf, above_any)
        if gx <= gy:
            x, line, g, above_any = x + 1.0, linex, gx, ax
        else:
            y, line, g, above_any = y + 1.0, liney, gy, ay
        if g < best_gini:
            best_gini = g
            best_line = line
    return best_gini, best_line


@dataclass(frozen=True)
class LineCandidate:
    """A value-space splitting line with its buffering band.

    ``w = a*x + b*y`` increases from the under side to the above side;
    records with ``w <= c_lo`` are certainly under, ``w > c_hi`` certainly
    above, and the band in between is buffered for exact resolution.
    """

    y_attr: int
    a: float
    b: float
    c_lo: float
    c_hi: float
    gini: float


def _grid_support(edges: np.ndarray) -> np.ndarray:
    """Finite value-space coordinates for grid points ``0 .. q``.

    The outer unbounded intervals get an extent equal to the median inner
    width (the same convention as ``edges_from_histogram``).
    """
    if len(edges) == 0:
        return np.array([0.0, 1.0])
    widths = np.diff(edges)
    typical = float(np.median(widths)) if len(widths) else 1.0
    typical = typical if typical > 0 else 1.0
    return np.concatenate(([edges[0] - typical], edges, [edges[-1] + typical]))


def _grid_to_value_vec(support: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Vectorized grid-coordinate to value-space map (linear extrapolation)."""
    u = np.asarray(u, dtype=np.float64)
    q = len(support) - 1
    out = np.interp(np.clip(u, 0, q), np.arange(q + 1), support)
    below = u < 0
    above = u > q
    if below.any():
        out[below] = support[0] + u[below] * (support[1] - support[0])
    if above.any():
        out[above] = support[-1] + (u[above] - q) * (support[-1] - support[-2])
    return out


def _grid_to_value(support: np.ndarray, u: float) -> float:
    """Map one grid coordinate to value space."""
    return float(_grid_to_value_vec(support, np.array([u]))[0])


def _line_to_candidate(
    grid: "_Grid",
    line: GridLine,
    flipped: bool,
    gini_value: float,
) -> LineCandidate | None:
    """Convert a grid-space line into a value-space candidate with a band."""
    qx, qy = len(grid.x_edges) + 1, len(grid.y_edges) + 1
    sx = _grid_support(grid.x_edges)
    sy = _grid_support(grid.y_edges)

    if not flipped:
        p1 = (_grid_to_value(sx, line.x), _grid_to_value(sy, 0.0))
        p2 = (_grid_to_value(sx, 0.0), _grid_to_value(sy, line.y))
        origin = (_grid_to_value(sx, 0.0), _grid_to_value(sy, 0.0))
    else:
        p1 = (_grid_to_value(sx, line.x), _grid_to_value(sy, float(qy)))
        p2 = (_grid_to_value(sx, 0.0), _grid_to_value(sy, qy - line.y))
        origin = (_grid_to_value(sx, 0.0), _grid_to_value(sy, float(qy)))

    # Normal to the line through p1, p2.
    a = p2[1] - p1[1]
    b = p1[0] - p2[0]
    c = a * p1[0] + b * p1[1]
    if abs(a) < 1e-12 * max(abs(b), 1.0):
        return None  # effectively univariate; the 1-D machinery covers it
    # Orient so the under region (containing the walk's origin) has w < c.
    if a * origin[0] + b * origin[1] > c:
        a, b, c = -a, -b, -c
    # Normalize the x coefficient to +-1 (the paper normalizes to 1).
    scale = abs(a)
    a, b, c = a / scale, b / scale, c / scale

    # Band: extreme corner projections of the cells the line crosses.
    under, above, on = classify_cells(qx, qy, line)
    if flipped:
        on = on[:, ::-1]
    if not on.any():
        return None
    ii, jj = np.nonzero(on)
    corners = []
    for di in (0, 1):
        for dj in (0, 1):
            wx = _grid_to_value_vec(sx, ii + float(di))
            wy = _grid_to_value_vec(sy, jj + float(dj))
            corners.append(a * wx + b * wy)
    allw = np.concatenate(corners)
    c_lo = float(allw.min())
    c_hi = float(allw.max())
    if not c_lo < c_hi:
        return None
    return LineCandidate(
        y_attr=grid.y_attr, a=a, b=b, c_lo=c_lo, c_hi=c_hi, gini=gini_value
    )


#: Grids larger than this (per axis) are decimated before the intercept
#: walk; line *direction* discovery does not need fine resolution, and the
#: band is re-derived on the full grid afterwards via the exact-resolution
#: buffering anyway.
WALK_MAX_AXIS = 24


@dataclass(frozen=True)
class _Grid:
    """The grid of a decimated matrix, all :func:`_line_to_candidate` reads."""

    y_attr: int
    x_edges: np.ndarray
    y_edges: np.ndarray


def _factors(matrix: HistogramMatrix) -> tuple[int, int]:
    """Decimation factors bringing each axis to at most ``WALK_MAX_AXIS``."""
    return -(-matrix.qx // WALK_MAX_AXIS), -(-matrix.qy // WALK_MAX_AXIS)


def _coarse_grid(matrix: HistogramMatrix, fx: int, fy: int) -> _Grid:
    """The axes of ``matrix`` merged ``fx`` x-bins and ``fy`` y-bins at a time."""
    qx = -(-matrix.qx // fx)
    qy = -(-matrix.qy // fy)
    return _Grid(
        matrix.y_attr,
        matrix.x_edges[fx - 1 :: fx][: qx - 1],
        matrix.y_edges[fy - 1 :: fy][: qy - 1],
    )


def _decimated(matrix: HistogramMatrix) -> HistogramMatrix:
    """A coarsened copy of ``matrix`` for the intercept walk."""
    fx, fy = _factors(matrix)
    if fx == 1 and fy == 1:
        return matrix
    grid = _coarse_grid(matrix, fx, fy)
    qx, qy = len(grid.x_edges) + 1, len(grid.y_edges) + 1
    c = matrix.n_classes
    padded = np.zeros((qx * fx, qy * fy, c))
    padded[: matrix.qx, : matrix.qy] = matrix.counts
    coarse_counts = padded.reshape(qx, fx, qy, fy, c).sum(axis=(1, 3))
    coarse = HistogramMatrix(
        matrix.x_attr, matrix.y_attr, grid.x_edges, grid.y_edges, c
    )
    coarse.counts = coarse_counts
    # Extrema per coarse bin: min/max over the merged fine bins.
    coarse.y_stats.vmin = np.pad(
        matrix.y_stats.vmin, (0, qy * fy - matrix.qy), constant_values=np.inf
    ).reshape(qy, fy).min(axis=1)
    coarse.y_stats.vmax = np.pad(
        matrix.y_stats.vmax, (0, qy * fy - matrix.qy), constant_values=-np.inf
    ).reshape(qy, fy).max(axis=1)
    return coarse


def _walks(matrices: list[HistogramMatrix]) -> list[tuple[float, GridLine]]:
    """Both walks of every matrix's decimated grid, unflipped first.

    One native ``cmp_slope_walks`` call decimates and walks them all;
    without it, each walk is a :func:`gini_slope_walk` on
    :func:`_decimated`'s counts, the reference it reproduces.
    """
    native = native_scan.slope_walks(
        [(m.counts, *_factors(m)) for m in matrices], _MAX_STEPS
    )
    if native is not None:
        return [(g, GridLine(x, y)) for g, x, y in native.reshape(-1, 3).tolist()]
    walks = []
    for matrix in matrices:
        counts = _decimated(matrix).counts
        walks.append(gini_slope_walk(counts))
        walks.append(gini_slope_walk(counts[:, ::-1, :]))
    return walks


def best_linear_candidate(mset: MatrixSet) -> LineCandidate | None:
    """Best splitting line over every matrix and both slopes (§2.3).

    Returns ``None`` when no matrix yields a usable line.  The caller
    applies the paper's acceptance heuristics (trigger threshold and the
    20 % improvement requirement).
    """
    matrices = [m for m in mset.matrices.values() if m.qx >= 2 and m.qy >= 2]
    walks = iter(_walks(matrices))
    best: LineCandidate | None = None
    for matrix in matrices:
        grid = _coarse_grid(matrix, *_factors(matrix))
        for flipped in (False, True):
            g, line = next(walks)
            if best is not None and g >= best.gini:
                continue
            cand = _line_to_candidate(grid, line, flipped, g)
            if cand is not None and (best is None or cand.gini < best.gini):
                best = cand
    return best
