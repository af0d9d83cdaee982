"""The native C kernels, built on demand with the system C compiler.

One C source holds every per-record hot loop of the repository, for
training and for serving alike:

====================  =====================================================
``cmp_hist_accum``    searchsorted + scatter-add into ``(q, c)`` float64
                      counts, per-bin value extrema (NaN-propagating).
``cmp_cat_accum``     float→int64 category cast + scatter-add into
                      ``(ncat, c)`` float64 counts.
``cmp_matrix_accum``  y-binning + scatter-add into a ``(qx, qy, c)``
                      int32 or int64 cube with y extrema (two variants).
``cmp_boundary_ginis``  partition gini at every interval boundary.
``cmp_slope_walk``    the full Figure-12 greedy intercept walk.
``cmp_route``         a compiled tree's leaf index per record.
``cmp_forest_score``  a packed forest's summed leaf values per record.
====================  =====================================================

``cmp_hist_accum`` and ``cmp_cat_accum`` also have ``_w`` variants that
add a bootstrap weight per record.  ``cmp_route`` and
``cmp_forest_score`` share one per-record tree walk.  The numpy loops they replace scan
whole columns per node or per bin; a scalar C loop visits each record's
row once while it sits in cache, which is several times faster.

This module compiles the source into one shared library at first use
(via :mod:`repro.core.native_build`, whose content-addressed cache
forked workers and later processes reuse), loads it through
:mod:`ctypes` and resolves it once per process.  No compiler, a failed
compile, an unusual platform or ``CMP_NO_NATIVE=1`` in the environment
all resolve to "no kernels": every caller then takes its pure-numpy
path, which is always available, bit-identical, and the reference
implementation.  :func:`force_numpy` does the same for one block.

Bit-identity notes: the library is compiled with ``-ffp-contract=off``,
so ``a*x + b*y`` rounds exactly like the two-instruction numpy
evaluation (no FMA contraction), and categorical codes use the same
float→int64 C cast semantics numpy's ``astype(intp)`` has on every
platform where the library builds (it is refused where ``np.intp`` is
not 64-bit).  :mod:`repro.core.native_scan` states the training
kernels' envelope.

ABI: all pointers 8-byte aligned, sizes and strides int64.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager
from typing import Iterator

import numpy as np

from repro.core import native_build

_SOURCE = r"""
#include <stdint.h>

/* numpy's sort-order less-than for doubles (npy_sort.h): NaN compares
 * greater than every number, so searchsorted keeps NaN in the last bin. */
static int lt(double a, double b)
{
    return a < b || (b != b && a == a);
}

/* np.searchsorted(edges, v, side="left") on a sorted edges[0..m). */
static int64_t bin_of(double v, const double *edges, int64_t m)
{
    int64_t lo = 0, hi = m;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (lt(edges[mid], v))
            lo = mid + 1;
        else
            hi = mid;
    }
    return lo;
}

/* np.minimum / np.maximum semantics: NaN propagates from either side. */
static void fold_min(double *slot, double v)
{
    double cur = *slot;
    if (cur == cur && (v != v || v < cur))
        *slot = v;
}

static void fold_max(double *slot, double v)
{
    double cur = *slot;
    if (cur == cur && (v != v || v > cur))
        *slot = v;
}

/* bins = searchsorted(edges, values); np.add.at(counts, (bins, labels), 1);
 * np.minimum.at(vmin, bins, values); np.maximum.at(vmax, bins, values).
 * Returns 1 on a label out of range (numpy raises IndexError). */
int cmp_hist_accum(int64_t n, int64_t vstride, const double *values,
                   const int64_t *labels, const double *edges, int64_t m,
                   int64_t c, double *counts, double *vmin, double *vmax)
{
    for (int64_t r = 0; r < n; ++r) {
        double v = values[r * vstride];
        int64_t lab = labels[r];
        if (lab < 0)
            lab += c;
        if (lab < 0 || lab >= c)
            return 1;
        int64_t b = bin_of(v, edges, m);
        counts[b * c + lab] += 1.0;
        fold_min(vmin + b, v);
        fold_max(vmax + b, v);
    }
    return 0;
}

/* Weighted variant: np.add.at(counts, (bins, labels), weights).  Counts
 * stay exact (integer-valued weights on integer-valued counts), so a
 * weight-w add is bit-identical to w unit adds in any order.  Extrema
 * fold every record, like the unweighted kernel — callers drop
 * zero-weight records beforehand so phantom values never pollute the
 * per-bin min/max. */
int cmp_hist_accum_w(int64_t n, int64_t vstride, const double *values,
                     const int64_t *labels, const double *weights,
                     const double *edges, int64_t m, int64_t c,
                     double *counts, double *vmin, double *vmax)
{
    for (int64_t r = 0; r < n; ++r) {
        double v = values[r * vstride];
        int64_t lab = labels[r];
        if (lab < 0)
            lab += c;
        if (lab < 0 || lab >= c)
            return 1;
        int64_t b = bin_of(v, edges, m);
        counts[b * c + lab] += weights[r];
        fold_min(vmin + b, v);
        fold_max(vmax + b, v);
    }
    return 0;
}

/* np.add.at(counts, (codes.astype(intp), labels), 1) — C-cast code
 * conversion, negative indices wrap, out of range returns 1. */
int cmp_cat_accum(int64_t n, int64_t vstride, const double *codes,
                  const int64_t *labels, int64_t ncat, int64_t c,
                  double *counts)
{
    for (int64_t r = 0; r < n; ++r) {
        double cv = codes[r * vstride];
        /* Guard the undefined float->int cast numpy performs on junk
         * input: any such code indexes out of range either way. */
        if (cv != cv || cv >= 9.2233720368547758e18 || cv < -9.2233720368547758e18)
            return 1;
        int64_t k = (int64_t)cv;
        int64_t lab = labels[r];
        if (k < 0)
            k += ncat;
        if (lab < 0)
            lab += c;
        if (k < 0 || k >= ncat || lab < 0 || lab >= c)
            return 1;
        counts[k * c + lab] += 1.0;
    }
    return 0;
}

/* Weighted variant: np.add.at(counts, (codes, labels), weights). */
int cmp_cat_accum_w(int64_t n, int64_t vstride, const double *codes,
                    const int64_t *labels, const double *weights,
                    int64_t ncat, int64_t c, double *counts)
{
    for (int64_t r = 0; r < n; ++r) {
        double cv = codes[r * vstride];
        if (cv != cv || cv >= 9.2233720368547758e18 || cv < -9.2233720368547758e18)
            return 1;
        int64_t k = (int64_t)cv;
        int64_t lab = labels[r];
        if (k < 0)
            k += ncat;
        if (lab < 0)
            lab += c;
        if (k < 0 || k >= ncat || lab < 0 || lab >= c)
            return 1;
        counts[k * c + lab] += weights[r];
    }
    return 0;
}

/* y_bins = searchsorted(y_edges, y); np.add.at(counts, (x_bins, y_bins,
 * labels), 1); y extrema.  Two count dtypes (the matrix cube widens from
 * int32 to int64 on demand). */
#define MATRIX_ACCUM(NAME, CTYPE)                                           \
int NAME(int64_t n, const int64_t *x_bins, int64_t ystride,                 \
         const double *y_values, const int64_t *labels,                     \
         const double *y_edges, int64_t m, int64_t qx, int64_t qy,          \
         int64_t c, CTYPE *counts, double *vmin, double *vmax)              \
{                                                                           \
    for (int64_t r = 0; r < n; ++r) {                                       \
        double yv = y_values[r * ystride];                                  \
        int64_t xb = x_bins[r];                                             \
        int64_t lab = labels[r];                                            \
        if (xb < 0)                                                         \
            xb += qx;                                                       \
        if (lab < 0)                                                        \
            lab += c;                                                       \
        if (xb < 0 || xb >= qx || lab < 0 || lab >= c)                      \
            return 1;                                                       \
        int64_t yb = bin_of(yv, y_edges, m);                                \
        counts[(xb * qy + yb) * c + lab] += 1;                              \
        fold_min(vmin + yb, yv);                                            \
        fold_max(vmax + yb, yv);                                            \
    }                                                                       \
    return 0;                                                               \
}

MATRIX_ACCUM(cmp_matrix_accum32, int32_t)
MATRIX_ACCUM(cmp_matrix_accum64, int64_t)

/* gini() of one class-count row whose (sequential) total is s, using a
 * c-element scratch for the squared proportions.  Mirrors, op for op:
 *   p2 = where(n > 0, counts / maximum(n, 1.0), 0.0) ** 2
 *   1.0 - p2.sum(axis=-1)
 * The p2 sum is the one order-sensitive reduction of the whole module;
 * callers guarantee c < 8 so numpy's sum is plain left-to-right too. */
static double gini_one(const double *cnt, int64_t c, double s, double *p2)
{
    if (!(s > 0.0))
        return 0.0;
    double den = s > 1.0 ? s : 1.0;
    for (int64_t j = 0; j < c; ++j) {
        double p = cnt[j] / den;
        p2[j] = p * p;
    }
    double total = 0.0;
    for (int64_t j = 0; j < c; ++j)
        total += p2[j];
    return 1.0 - total;
}

/* boundary_ginis(cum, totals): right = totals - cum per row, then
 * gini_partition(cum, right).  scratch holds 2*c doubles. */
void cmp_boundary_ginis(int64_t b, int64_t c, const double *cum,
                        const double *totals, double *out, double *scratch)
{
    double *right = scratch;
    double *p2 = scratch + c;
    for (int64_t k = 0; k < b; ++k) {
        const double *left = cum + k * c;
        double nl = 0.0, nr = 0.0;
        for (int64_t j = 0; j < c; ++j) {
            right[j] = totals[j] - left[j];
            nl += left[j];
            nr += right[j];
        }
        double n = nl + nr;
        if (n > 0.0) {
            double gl = gini_one(left, c, nl, p2);
            double gr = gini_one(right, c, nr, p2);
            double den = n > 1.0 ? n : 1.0;
            out[k] = (nl * gl + nr * gr) / den;
        } else {
            out[k] = 0.0;
        }
    }
}

/* One _WalkScratch.evaluate: three-way gini of a line plus whether any
 * cell lies above it.  The under/above partition counts are integer-
 * valued, so their accumulation order is exact; only the final
 * acc += s - dot/s chain is order-sensitive and replicates the Python
 * loop (cu, ca, co in that order, one rounding per op). */
static double walk_eval(const double *counts, const double *total,
                        int64_t qx, int64_t qy, int64_t c,
                        double lx, double ly, double n,
                        double *cu, double *ca, double *co, int *above_any)
{
    double rhs = lx * ly;
    for (int64_t k = 0; k < c; ++k) {
        cu[k] = 0.0;
        ca[k] = 0.0;
    }
    int any_above = 0;
    for (int64_t i = 0; i < qx; ++i) {
        for (int64_t j = 0; j < qy; ++j) {
            const double *cell = counts + (i * qy + j) * c;
            double under_lhs = (double)(i + 1) * ly + (double)(j + 1) * lx;
            double above_lhs = (double)i * ly + (double)j * lx;
            if (under_lhs <= rhs)
                for (int64_t k = 0; k < c; ++k)
                    cu[k] += cell[k];
            if (above_lhs >= rhs) {
                any_above = 1;
                for (int64_t k = 0; k < c; ++k)
                    ca[k] += cell[k];
            }
        }
    }
    for (int64_t k = 0; k < c; ++k)
        co[k] = total[k] - cu[k] - ca[k];
    double acc = 0.0;
    const double *parts[3];
    parts[0] = cu;
    parts[1] = ca;
    parts[2] = co;
    for (int p = 0; p < 3; ++p) {
        const double *v = parts[p];
        double s = 0.0, dot = 0.0;
        for (int64_t k = 0; k < c; ++k) {
            s += v[k];
            dot += v[k] * v[k];
        }
        if (s > 0.0)
            acc += s - dot / s;
    }
    *above_any = any_above;
    return n > 0.0 ? acc / n : 0.0;
}

/* gini_slope_walk (Figure 12): greedy intercept walk from (1, 1).
 * scratch holds 4*c doubles; out receives {best_gini, best_x, best_y}. */
void cmp_slope_walk(int64_t qx, int64_t qy, int64_t c, const double *counts,
                    int64_t max_steps, double *scratch, double *out)
{
    double *total = scratch;
    double *cu = scratch + c;
    double *ca = scratch + 2 * c;
    double *co = scratch + 3 * c;
    for (int64_t k = 0; k < c; ++k)
        total[k] = 0.0;
    int64_t cells = qx * qy;
    for (int64_t i = 0; i < cells; ++i)
        for (int64_t k = 0; k < c; ++k)
            total[k] += counts[i * c + k];
    double n = 0.0;
    for (int64_t k = 0; k < c; ++k)
        n += total[k];
    double x_cap = (double)(qx + qy), y_cap = x_cap;
    double x = 1.0, y = 1.0;
    int above_any;
    double best = walk_eval(counts, total, qx, qy, c, x, y, n,
                            cu, ca, co, &above_any);
    double bx = x, by = y;
    for (int64_t step = 0; step < max_steps; ++step) {
        if (!above_any || (x >= x_cap && y >= y_cap))
            break;
        double gx, gy, g;
        int ax = above_any, ay = above_any;
        if (x < x_cap)
            gx = walk_eval(counts, total, qx, qy, c, x + 1.0, y, n,
                           cu, ca, co, &ax);
        else
            gx = 1.0 / 0.0;
        if (y < y_cap)
            gy = walk_eval(counts, total, qx, qy, c, x, y + 1.0, n,
                           cu, ca, co, &ay);
        else
            gy = 1.0 / 0.0;
        if (gx <= gy) {
            x += 1.0;
            g = gx;
            above_any = ax;
        } else {
            y += 1.0;
            g = gy;
            above_any = ay;
        }
        if (g < best) {
            best = g;
            bx = x;
            by = y;
        }
    }
    out[0] = best;
    out[1] = bx;
    out[2] = by;
}

/* A compiled tree's node arrays, or a packed forest's concatenated ones.
 * Tags match repro.core.compiled: LEAF=0 NUMERIC=1 CATEGORICAL=2
 * LINEAR=3.  Leaves self-loop through left/right. */
struct nodes {
    const int8_t *kind;
    const int32_t *attr, *attr2;
    const double *coef_a, *coef_b, *threshold;
    const int64_t *left, *right;
    const uint8_t *default_left;
    const int64_t *cat_offset, *cat_len;
    const uint8_t *cat_mask;
};

/* The per-record descent: walk one row from node i down to its leaf.
 * Forced inline: as a call, routing runs ~25% slower. */
static inline __attribute__((always_inline)) int64_t
walk(const struct nodes *t, const double *row, int64_t i)
{
    for (;;) {
        int8_t k = t->kind[i];
        int go;
        if (k == 0)
            return i;
        if (k == 1) {
            go = row[t->attr[i]] <= t->threshold[i];
        } else if (k == 3) {
            go = t->coef_a[i] * row[t->attr[i]] + t->coef_b[i] * row[t->attr2[i]]
                 <= t->threshold[i];
        } else {
            int64_t code = (int64_t)row[t->attr[i]];
            if (code >= 0 && code < t->cat_len[i])
                go = t->cat_mask[t->cat_offset[i] + code];
            else
                go = t->default_left[i];
        }
        i = go ? t->left[i] : t->right[i];
    }
}

/* Single-tree routing: out[r] is the leaf index of record r. */
void cmp_route(int64_t n, int64_t ncols, const double *X,
               const int8_t *kind, const int32_t *attr, const int32_t *attr2,
               const double *coef_a, const double *coef_b,
               const double *threshold,
               const int64_t *left, const int64_t *right,
               const uint8_t *default_left,
               const int64_t *cat_offset, const int64_t *cat_len,
               const uint8_t *cat_mask,
               int64_t *out)
{
    const struct nodes t = {kind, attr, attr2, coef_a, coef_b, threshold,
                            left, right, default_left, cat_offset, cat_len,
                            cat_mask};
    for (int64_t r = 0; r < n; ++r)
        out[r] = walk(&t, X + r * ncols, 0);
}

/* Packed-forest scoring: one call routes every record through every
 * member tree and accumulates the leaf value rows.  Arrays are the
 * member trees' node arrays concatenated in member order with child
 * indices, cat_mask offsets and leaf_row already shifted to global
 * positions (repro.core.compiled.compile_forest); tree_offsets[m] is
 * member m's root index.  Per record the accumulator starts at base and
 * adds member leaf rows in member order — the exact element-wise fold
 * order of the numpy fallback, hence bit-identical results. */
void cmp_forest_score(int64_t n, int64_t ncols, const double *X,
                      int64_t n_trees, const int64_t *tree_offsets,
                      const int8_t *kind, const int32_t *attr,
                      const int32_t *attr2,
                      const double *coef_a, const double *coef_b,
                      const double *threshold,
                      const int64_t *left, const int64_t *right,
                      const uint8_t *default_left,
                      const int64_t *cat_offset, const int64_t *cat_len,
                      const uint8_t *cat_mask,
                      const int64_t *leaf_row, int64_t n_outputs,
                      const double *base, const double *values,
                      double *acc)
{
    const struct nodes t = {kind, attr, attr2, coef_a, coef_b, threshold,
                            left, right, default_left, cat_offset, cat_len,
                            cat_mask};
    for (int64_t r = 0; r < n; ++r) {
        const double *row = X + r * ncols;
        double *a = acc + r * n_outputs;
        for (int64_t k = 0; k < n_outputs; ++k)
            a[k] = base[k];
        for (int64_t m = 0; m < n_trees; ++m) {
            int64_t leaf = walk(&t, row, tree_offsets[m]);
            const double *v = values + leaf_row[leaf] * n_outputs;
            for (int64_t k = 0; k < n_outputs; ++k)
                a[k] += v[k];
        }
    }
}
"""

_PTR = ctypes.c_void_p
_I64 = ctypes.c_int64
_MATRIX = [_I64, _PTR, _I64, _PTR, _PTR, _PTR, _I64, _I64, _I64, _I64, _PTR, _PTR, _PTR]

#: ``cmp_<name>`` -> (restype, argtypes) for every kernel in the library.
_SIGNATURES = {
    "hist_accum": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR]),
    "hist_accum_w": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _PTR, _I64, _I64, _PTR, _PTR, _PTR]),
    "cat_accum": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _I64, _I64, _PTR]),
    "cat_accum_w": (ctypes.c_int, [_I64, _I64, _PTR, _PTR, _PTR, _I64, _I64, _PTR]),
    "matrix_accum32": (ctypes.c_int, _MATRIX),
    "matrix_accum64": (ctypes.c_int, _MATRIX),
    "boundary_ginis": (None, [_I64, _I64, _PTR, _PTR, _PTR, _PTR]),
    "slope_walk": (None, [_I64, _I64, _I64, _PTR, _I64, _PTR, _PTR]),
    "route": (None, [_I64, _I64] + [_PTR] * 14),
    "forest_score": (None, [_I64, _I64, _PTR, _I64] + [_PTR] * 14 + [_I64, _PTR, _PTR, _PTR]),
}

_lock = threading.Lock()
_kernels: dict[str, object] | None = None
_resolved = False


def _route_wrapper(fn):
    """``cmp_route`` as ``kernel(ct, X, out)`` over a compiled tree."""

    def kernel(ct, X: np.ndarray, out: np.ndarray) -> None:
        n, ncols = X.shape
        fn(
            n,
            ncols,
            X.ctypes.data,
            ct.kind.ctypes.data,
            ct.attr.ctypes.data,
            ct.attr2.ctypes.data,
            ct.coef_a.ctypes.data,
            ct.coef_b.ctypes.data,
            ct.threshold.ctypes.data,
            ct.left.ctypes.data,
            ct.right.ctypes.data,
            ct.default_left.ctypes.data,
            ct.cat_offset.ctypes.data,
            ct.cat_len.ctypes.data,
            ct.cat_mask.ctypes.data,
            out.ctypes.data,
        )

    return kernel


def _forest_wrapper(fn):
    """``cmp_forest_score`` as ``kernel(cf, X, acc)`` over a packed forest."""

    def kernel(cf, X: np.ndarray, acc: np.ndarray) -> None:
        n, ncols = X.shape
        fn(
            n,
            ncols,
            X.ctypes.data,
            cf.n_trees,
            cf.tree_offsets.ctypes.data,
            cf.kind.ctypes.data,
            cf.attr.ctypes.data,
            cf.attr2.ctypes.data,
            cf.coef_a.ctypes.data,
            cf.coef_b.ctypes.data,
            cf.threshold.ctypes.data,
            cf.left.ctypes.data,
            cf.right.ctypes.data,
            cf.default_left.ctypes.data,
            cf.cat_offset.ctypes.data,
            cf.cat_len.ctypes.data,
            cf.cat_mask.ctypes.data,
            cf.leaf_row.ctypes.data,
            cf.n_outputs,
            cf.base.ctypes.data,
            cf.values.ctypes.data,
            acc.ctypes.data,
        )

    return kernel


def _build() -> dict[str, object] | None:
    lib = native_build.load_library("cmp", _SOURCE)
    if lib is None:
        return None
    fns: dict[str, object] = {}
    for name, (restype, argtypes) in _SIGNATURES.items():
        fn = getattr(lib, f"cmp_{name}")
        fn.restype = restype
        fn.argtypes = argtypes
        fns[name] = fn
    # Wrapped once, here: wrapping per call (a functools.partial or a
    # closure) let four threads serving 32-row batches starve every other
    # thread of the GIL; the ingest loop of the hot-swap test in
    # tests/test_stream_refresh.py then took up to 16 s instead of < 3 s.
    fns["route"] = _route_wrapper(fns["route"])
    fns["forest_score"] = _forest_wrapper(fns["forest_score"])
    return fns


def _resolve() -> dict[str, object] | None:
    """The kernel table, resolved once per process (``None`` = use numpy)."""
    global _kernels, _resolved
    if _resolved:
        return _kernels
    with _lock:
        if _resolved:
            return _kernels
        _kernels = None
        if (
            not os.environ.get("CMP_NO_NATIVE")
            and np.intp(0).itemsize == 8
            and np.dtype(np.int64).byteorder in ("=", "<", ">")
        ):
            try:
                _kernels = _build()
            except Exception:
                _kernels = None
        _resolved = True
    return _kernels


def available() -> bool:
    """True when the kernels built (or will build) on this machine."""
    return _resolve() is not None


#: The name serving code and benchmarks use for :func:`available`.
native_available = available


def warm_up() -> bool:
    """Resolve (and if needed compile) the library now.

    The process scan backend calls this before forking workers so every
    child inherits the already-loaded library instead of racing to build
    its own copy.
    """
    return available()


@contextmanager
def force_numpy() -> Iterator[None]:
    """Temporarily report the kernels as unavailable (tests/benchmarks).

    In-process counterpart of ``CMP_NO_NATIVE=1``: every dispatch inside
    the block, training and serving alike, takes the numpy path.  Under
    the process scan backend the forced state is inherited by workers
    forked inside the block.
    """
    global _kernels, _resolved
    with _lock:
        saved = (_kernels, _resolved)
        _kernels, _resolved = None, True
    try:
        yield
    finally:
        with _lock:
            _kernels, _resolved = saved


def route_kernel():
    """The single-tree routing kernel ``(ct, X, out)``, or ``None``."""
    kernels = _resolve()
    return None if kernels is None else kernels["route"]


def forest_kernel():
    """The packed-forest scoring kernel ``(cf, X, acc)``, or ``None``."""
    kernels = _resolve()
    return None if kernels is None else kernels["forest_score"]


__all__ = [
    "available",
    "native_available",
    "warm_up",
    "force_numpy",
    "route_kernel",
    "forest_kernel",
]
