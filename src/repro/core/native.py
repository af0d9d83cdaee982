"""The native C kernels, built on demand with the system C compiler.

One C source holds every per-record hot loop of the repository, for
training and for serving alike, and the per-node split searches of the
resolve phase:

======================  ===================================================
``cmp_part_accum``      a CMP-S part's whole update in one pass: class
                        counts, every class histogram (searchsorted,
                        scatter-add, NaN-propagating bin extrema) and
                        every category histogram.
``cmp_mset_accum``      a matrix set's whole update in one pass: class
                        counts, the x bin and its extrema, every
                        ``(qx, qy, c)`` int32 or int64 cube cell with its
                        y extrema (two variants), every category
                        histogram.
``cmp_subset_splits``   every (node, categorical attribute) best subset
                        split of a tree level.
``cmp_requantile``      every child grid of one node, re-quantiled from
                        the parent's histograms.
``cmp_slope_walks``     every Figure-12 greedy intercept walk of one
                        matrix set: each matrix decimated, both slopes.
``cmp_route``           a compiled tree's leaf index per record.
``cmp_forest_score``    a packed forest's summed leaf values per record.
======================  ===================================================

``cmp_part_accum`` also has a ``_w`` variant that adds a bootstrap
weight per record.  The fused accumulators read their part's block of
a level's plan table of addresses (layout in the source) and validate
a whole chunk before writing anything.
``cmp_route`` and ``cmp_forest_score`` share one per-record tree walk.
The numpy loops they replace scan whole columns per node or per bin; a
scalar C loop visits each record's row once while it sits in cache,
which is several times faster.

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

ABI: all pointers 8-byte aligned, sizes and strides int64; plan tables
hold addresses as int64 words.
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

/* np.fmin / np.fmax semantics: a NaN value is ignored, so an interval
 * holding only NaNs keeps its +inf / -inf start. */
static void fold_min(double *slot, double v)
{
    if (v < *slot)
        *slot = v;
}

static void fold_max(double *slot, double v)
{
    if (v > *slot)
        *slot = v;
}

/* The fused kernels below fold one chunk's rows into every histogram of
 * one part in a single pass.  A level's plan, built once per level arena
 * by repro.core.native_scan, is one int64 table holding every part's
 * block back to back; a call gets the address of its part's block, which
 * holds addresses into the arena's arrays as words:
 *   words 0-3  {c, class_counts, nh, nc};
 *   words 4-8  a matrix set's shared x axis {x_attr, m, edges, vmin, vmax}
 *              (unused by parts);
 *   nh rows    {attr, m, edges, counts, vmin, vmax}: a continuous
 *              histogram, or one matrix's y axis and cube;
 *   nc rows    {attr, ncat, counts}: a categorical histogram;
 * where m = len(edges).  X is read through element strides rs (rows) and
 * cs (columns), so any float64 view works. */
#define PTR(T, w) ((T *)(intptr_t)(w))
#define PLAN_HEAD 9

/* numpy's float->intp cast of a category code, wrapped like a negative
 * index; 0 when the code indexes out of range (numpy raises IndexError).
 * NaN and out-of-int64 codes are refused before the (undefined) cast. */
static int code_of(double cv, int64_t ncat, int64_t *k)
{
    if (cv != cv || cv >= 9.2233720368547758e18 || cv < -9.2233720368547758e18)
        return 0;
    int64_t v = (int64_t)cv;
    if (v < 0)
        v += ncat;
    if (v < 0 || v >= ncat)
        return 0;
    *k = v;
    return 1;
}

/* Validate the whole chunk before anything is written: 1 when a label
 * lies outside [0, c) (numpy's bincount raises ValueError), 2 when a
 * category code is out of range (IndexError), 0 otherwise. */
static int check_rows(int64_t n, const double *X, int64_t rs, int64_t cs,
                      const int64_t *labels, const int64_t *plan)
{
    int64_t c = plan[0], nc = plan[3];
    const int64_t *cplan = plan + PLAN_HEAD + 6 * plan[2];
    for (int64_t r = 0; r < n; ++r)
        if (labels[r] < 0 || labels[r] >= c)
            return 1;
    for (int64_t h = 0; h < nc; ++h) {
        const int64_t *p = cplan + 3 * h;
        const double *col = X + p[0] * cs;
        int64_t k;
        for (int64_t r = 0; r < n; ++r)
            if (!code_of(col[r * rs], p[1], &k))
                return 2;
    }
    return 0;
}

/* np.add.at(counts, (codes, labels), w) for every categorical histogram
 * of the plan, on one validated row. */
static void cat_fold(const double *row, int64_t cs, int64_t lab, double w,
                     int64_t c, int64_t nc, const int64_t *cplan)
{
    for (int64_t h = 0; h < nc; ++h) {
        const int64_t *p = cplan + 3 * h;
        int64_t k = 0;
        code_of(row[p[0] * cs], p[1], &k);
        PTR(double, p[2])[k * c + lab] += w;
    }
}

/* PartState.update: class counts, then per row every continuous
 * histogram (searchsorted, scatter-add, extrema) and every categorical
 * one, through the part's block of its level's plan.  weights == NULL adds 1
 * per record. */
static int part_accum(int64_t n, const double *X, int64_t rs, int64_t cs,
                      const int64_t *labels, const double *weights,
                      const int64_t *plan)
{
    int rc = check_rows(n, X, rs, cs, labels, plan);
    if (rc)
        return rc;
    int64_t c = plan[0], nh = plan[2], nc = plan[3];
    double *class_counts = PTR(double, plan[1]);
    const int64_t *cplan = plan + PLAN_HEAD + 6 * nh;
    for (int64_t r = 0; r < n; ++r) {
        const double *row = X + r * rs;
        int64_t lab = labels[r];
        double w = weights ? weights[r] : 1.0;
        class_counts[lab] += w;
        for (int64_t h = 0; h < nh; ++h) {
            const int64_t *p = plan + PLAN_HEAD + 6 * h;
            double v = row[p[0] * cs];
            int64_t b = bin_of(v, PTR(const double, p[2]), p[1]);
            PTR(double, p[3])[b * c + lab] += w;
            fold_min(PTR(double, p[4]) + b, v);
            fold_max(PTR(double, p[5]) + b, v);
        }
        cat_fold(row, cs, lab, w, c, nc, cplan);
    }
    return 0;
}

int cmp_part_accum(int64_t n, const double *X, int64_t rs, int64_t cs,
                   const int64_t *labels, const int64_t *plan)
{
    return part_accum(n, X, rs, cs, labels, 0, plan);
}

/* Weighted variant: each record adds its (integer-valued) bootstrap
 * weight, exact in any order.  Callers drop zero-weight records. */
int cmp_part_accum_w(int64_t n, const double *X, int64_t rs, int64_t cs,
                     const int64_t *labels, const double *weights,
                     const int64_t *plan)
{
    return part_accum(n, X, rs, cs, labels, weights, plan);
}

/* MatrixSet.update: class counts, the shared x bin and its extrema,
 * every (x, y) cube cell with its y extrema, every categorical
 * histogram, through the set's block of its level's plan.  Two count
 * dtypes: a level arena's cubes are int32, or int64 when its table holds
 * more records than an int32 cell can count. */
#define MSET_ACCUM(NAME, CTYPE)                                             \
int NAME(int64_t n, const double *X, int64_t rs, int64_t cs,                \
         const int64_t *labels, const int64_t *plan)                        \
{                                                                           \
    int rc = check_rows(n, X, rs, cs, labels, plan);                        \
    if (rc)                                                                 \
        return rc;                                                          \
    int64_t c = plan[0], nh = plan[2], nc = plan[3];                        \
    int64_t x_attr = plan[4], xm = plan[5];                                 \
    double *class_counts = PTR(double, plan[1]);                            \
    const double *x_edges = PTR(const double, plan[6]);                     \
    double *x_vmin = PTR(double, plan[7]), *x_vmax = PTR(double, plan[8]);  \
    const int64_t *cplan = plan + PLAN_HEAD + 6 * nh;                       \
    for (int64_t r = 0; r < n; ++r) {                                       \
        const double *row = X + r * rs;                                     \
        int64_t lab = labels[r];                                            \
        class_counts[lab] += 1.0;                                           \
        double xv = row[x_attr * cs];                                       \
        int64_t xb = bin_of(xv, x_edges, xm);                               \
        fold_min(x_vmin + xb, xv);                                          \
        fold_max(x_vmax + xb, xv);                                          \
        for (int64_t h = 0; h < nh; ++h) {                                  \
            const int64_t *p = plan + PLAN_HEAD + 6 * h;                    \
            double yv = row[p[0] * cs];                                     \
            int64_t yb = bin_of(yv, PTR(const double, p[2]), p[1]);        \
            PTR(CTYPE, p[3])[(xb * (p[1] + 1) + yb) * c + lab] += 1;        \
            fold_min(PTR(double, p[4]) + yb, yv);                           \
            fold_max(PTR(double, p[5]) + yb, yv);                           \
        }                                                                   \
        cat_fold(row, cs, lab, 1.0, c, nc, cplan);                          \
    }                                                                       \
    return 0;                                                               \
}

MSET_ACCUM(cmp_mset_accum32, int32_t)
MSET_ACCUM(cmp_mset_accum64, int64_t)

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

/* The two sequential sums below replicate numpy's reductions over fewer
 * than 8 elements (plain left-to-right); exact anyway on the integer-
 * valued counts every caller checks for. */
static double row_sum(const double *v, int64_t c)
{
    double s = 0.0;
    for (int64_t j = 0; j < c; ++j)
        s += v[j];
    return s;
}

/* gini_partition(left, totals - left) for one prefix: the arithmetic of
 * gini.boundary_ginis.  right and p2 hold c doubles each. */
static double partition_gini(const double *left, const double *totals,
                             int64_t c, double *right, double *p2,
                             double *nl_out)
{
    double nl = 0.0, nr = 0.0;
    for (int64_t j = 0; j < c; ++j) {
        right[j] = totals[j] - left[j];
        nl += left[j];
        nr += right[j];
    }
    *nl_out = nl;
    double n = nl + nr;
    if (!(n > 0.0))
        return 0.0;
    double gl = gini_one(left, c, nl, p2);
    double gr = gini_one(right, c, nr, p2);
    double den = n > 1.0 ? n : 1.0;
    return (nl * gl + nr * gr) / den;
}

/* Sort key of CategoryHistogram.best_subset_split's stable argsort: the
 * class fraction, then the category index (which makes any sort stable). */
struct frac_key {
    double frac;
    int64_t idx;
};

static void sort_keys(struct frac_key *keys, int64_t k)
{
    /* Insertion sort: category counts are small, and the index tiebreak
     * keeps equal fractions in index order like kind="stable". */
    for (int64_t i = 1; i < k; ++i) {
        struct frac_key cur = keys[i];
        int64_t j = i;
        while (j > 0 && (keys[j - 1].frac > cur.frac ||
                         (keys[j - 1].frac == cur.frac && keys[j - 1].idx > cur.idx))) {
            keys[j] = keys[j - 1];
            --j;
        }
        keys[j] = cur;
    }
}

/* CategoryHistogram.best_subset_split on one (k, c) count table, op for
 * op: per class, order the categories by that class's fraction (absent
 * categories at +inf, stable), sweep the prefix partitions, mask those
 * with an empty side, keep the first minimum, and keep a class's minimum
 * only when strictly below the best so far.  Writes the left mask and
 * returns the gini, or +inf (mask untouched) when fewer than two
 * categories are populated.  scratch holds 4*c + k doubles and keys k
 * entries. */
static double subset_split(const double *counts, int64_t k, int64_t c,
                           double *scratch, struct frac_key *keys,
                           uint8_t *mask)
{
    double *totals = scratch;
    double *cum = scratch + c;
    double *right = scratch + 2 * c;
    double *p2 = scratch + 3 * c;
    double *n_per_cat = scratch + 4 * c;
    for (int64_t j = 0; j < c; ++j)
        totals[j] = 0.0;
    int64_t present = 0;
    for (int64_t i = 0; i < k; ++i) {
        const double *row = counts + i * c;
        for (int64_t j = 0; j < c; ++j)
            totals[j] += row[j];
        n_per_cat[i] = row_sum(row, c);
        present += n_per_cat[i] > 0.0;
    }
    double best = 1.0 / 0.0;
    if (present < 2)
        return best;
    double n_total = row_sum(totals, c);
    int64_t best_cls = -1, best_len = 0;
    for (int64_t cls = 0; cls < c; ++cls) {
        for (int64_t i = 0; i < k; ++i) {
            double den = n_per_cat[i] > 1.0 ? n_per_cat[i] : 1.0;
            keys[i].frac = n_per_cat[i] > 0.0 ? counts[i * c + cls] / den : 1.0 / 0.0;
            keys[i].idx = i;
        }
        sort_keys(keys, k);
        for (int64_t j = 0; j < c; ++j)
            cum[j] = 0.0;
        double cls_best = 1.0 / 0.0;
        int64_t cls_len = 0;
        for (int64_t i = 0; i + 1 < k; ++i) {
            const double *row = counts + keys[i].idx * c;
            for (int64_t j = 0; j < c; ++j)
                cum[j] += row[j];
            double size;
            double g = partition_gini(cum, totals, c, right, p2, &size);
            if (size > 0.0 && size < n_total && g < cls_best) {
                cls_best = g;
                cls_len = i + 1;
            }
        }
        if (cls_len > 0 && cls_best < best) {
            best = cls_best;
            best_cls = cls;
            best_len = cls_len;
        }
    }
    if (best_cls < 0)
        return best;
    /* Re-derive the winning class's order for the mask. */
    for (int64_t i = 0; i < k; ++i) {
        double den = n_per_cat[i] > 1.0 ? n_per_cat[i] : 1.0;
        keys[i].frac = n_per_cat[i] > 0.0 ? counts[i * c + best_cls] / den : 1.0 / 0.0;
        keys[i].idx = i;
        mask[i] = 0;
    }
    sort_keys(keys, k);
    for (int64_t i = 0; i < best_len; ++i)
        mask[keys[i].idx] = n_per_cat[keys[i].idx] > 0.0;
    return best;
}

/* Every (node, categorical attribute) subset split of a level: the plan
 * holds one row {k, counts} per (k, c) float64 count table; masks are
 * written back to back into mask (k bytes per table) and each table's
 * gini into gini (+inf: no split).  scratch holds 4*c + max k doubles and
 * keys max k entries.  Returns 1, before answering anything, when a count
 * is negative or not integer-valued, or a table totals 9e15 or more: within
 * that envelope every count sum is exact in any order. */
int cmp_subset_splits(int64_t n_tables, const int64_t *plan, int64_t c,
                      double *scratch, void *keys, uint8_t *mask,
                      double *gini)
{
    for (int64_t t = 0; t < n_tables; ++t) {
        const double *counts = PTR(const double, plan[2 * t + 1]);
        double total = 0.0;
        for (int64_t e = 0; e < plan[2 * t] * c; ++e) {
            double v = counts[e];
            if (!(v >= 0.0 && v < 9.0e15) || v != (double)(int64_t)v)
                return 1;
            total += v;
        }
        if (!(total < 9.0e15))
            return 1;
    }
    for (int64_t t = 0; t < n_tables; ++t) {
        int64_t k = plan[2 * t];
        gini[t] = subset_split(PTR(const double, plan[2 * t + 1]), k, c,
                               scratch, keys, mask);
        mask += k;
    }
    return 0;
}

/* True for -0.0. */
static int negative_zero(double v)
{
    return v == 0.0 && 1.0 / v < 0.0;
}

/* np.interp(x, xp, fp) at one x, for a non-decreasing xp of length
 * len >= 2 (numpy's compiled_interp with its default left/right): j is
 * the last index with xp[j] <= x, so repeated x-points resolve to the
 * rightmost of them; exact hits and the last point return fp[j]; the
 * slope is recomputed on a NaN like numpy does. */
static double interp_one(double x, const double *xp, const double *fp,
                         int64_t len)
{
    if (x != x)
        return x;
    if (x < xp[0])
        return fp[0];
    if (x > xp[len - 1])
        return fp[len - 1];
    int64_t lo = 0, hi = len;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (x >= xp[mid])
            lo = mid + 1;
        else
            hi = mid;
    }
    int64_t j = lo - 1;
    if (j == len - 1 || xp[j] == x)
        return fp[j];
    double slope = (fp[j + 1] - fp[j]) / (xp[j + 1] - xp[j]);
    double r = slope * (x - xp[j]) + fp[j];
    if (r != r) {
        r = slope * (x - xp[j + 1]) + fp[j + 1];
        if (r != r && fp[j] == fp[j + 1])
            r = fp[j];
    }
    return r;
}

/* edges_from_histogram's extrema path for one parent grid: counts is the
 * (qp, c) class table, vmin/vmax the per-interval extrema, q the child
 * interval count.  Writes up to q - 1 edges to out and returns how many,
 * or -1 to decline: a count negative or not integer-valued, or a total of
 * 9e15 or more (outside which every sum is exact in any order), a
 * populated interval with non-finite extrema, a NaN edge, or both a +0.0
 * and a -0.0 edge (np.unique keeps whichever its unstable sort puts
 * first).  scratch holds 5*qp doubles. */
static int64_t requantile(const double *counts, int64_t qp, int64_t c,
                          const double *vmin, const double *vmax, int64_t q,
                          double *scratch, double *out)
{
    double *ic = scratch;
    double *points = scratch + qp;
    double *cdf = scratch + 3 * qp;
    double total = 0.0;
    for (int64_t i = 0; i < qp; ++i) {
        double s = 0.0;
        for (int64_t j = 0; j < c; ++j) {
            double v = counts[i * c + j];
            if (!(v >= 0.0 && v < 9.0e15) || v != (double)(int64_t)v)
                return -1;
            s += v;
        }
        ic[i] = s;
        total += s;
    }
    if (!(total < 9.0e15))
        return -1;
    if (q == 1 || total <= 0.0)
        return 0;
    int64_t len = 0;
    double cum = 0.0, lo = 0.0, hi = 0.0;
    for (int64_t i = 0; i < qp; ++i) {
        if (!(ic[i] > 0.0))
            continue;
        double a = vmin[i], b = vmax[i];
        if (!(a - a == 0.0 && b - b == 0.0))
            return -1;
        if (len == 0 || a < lo)
            lo = a;
        if (len == 0 || b > hi)
            hi = b;
        points[len] = a;
        points[len + 1] = b;
        cdf[len] = cum;
        cdf[len + 1] = cum + ic[i];
        cum += ic[i];
        len += 2;
    }
    for (int64_t e = 0; e < len; ++e)
        cdf[e] = cdf[e] / total;
    int64_t n = 0;
    for (int64_t k = 1; k < q; ++k) {
        double v = interp_one((double)k / (double)q, cdf, points, len);
        if (v != v)
            return -1;
        /* np.unique: insertion into the sorted run, dropping repeats. */
        int64_t at = n;
        while (at > 0 && out[at - 1] > v)
            --at;
        if (at > 0 && out[at - 1] == v) {
            if (negative_zero(v) != negative_zero(out[at - 1]))
                return -1;
            continue;
        }
        for (int64_t m = n; m > at; --m)
            out[m] = out[m - 1];
        out[at] = v;
        ++n;
    }
    int64_t kept = 0;
    for (int64_t m = 0; m < n; ++m)
        if (out[m] >= lo && out[m] < hi)
            out[kept++] = out[m];
    return kept;
}

/* Every child grid one node needs re-quantiled, in one call: the plan
 * holds one row {qp, counts, vmin, vmax, q} per (child, attribute) pair;
 * row r writes its edges to out + offset (offsets advance by q - 1) and
 * their number to n_out[r], -1 when it declines (requantile). */
void cmp_requantile(int64_t n_rows, const int64_t *plan, int64_t c,
                    double *scratch, double *out, int64_t *n_out)
{
    for (int64_t r = 0; r < n_rows; ++r) {
        const int64_t *p = plan + 5 * r;
        n_out[r] = requantile(PTR(const double, p[1]), p[0], c,
                              PTR(const double, p[2]), PTR(const double, p[3]),
                              p[4], scratch, out);
        out += p[4] - 1;
    }
}

/* The partial sums of one line's under and above cells, from per-row
 * prefix sums of the grid.  pre holds, for row i and 0 <= j <= qy, the
 * class counts of cells (i, 0..j-1) at pre + (i * (qy + 1) + j) * c.
 * Row i's under cells are a prefix and its above cells a suffix, because
 * the corner expressions below grow with j (and with i); each row's two
 * boundaries are found with those expressions, so a cell is under, above
 * or crossed exactly when the cell-by-cell test of _WalkScratch.evaluate
 * says so.  The sums are integer-valued, hence exact in any order; only
 * the final acc += s - dot/s chain is order-sensitive and replicates the
 * Python loop (cu, ca, co in that order, one rounding per op). */
static double walk_eval(const double *pre, const double *total,
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
    int64_t u = qy, a = qy;
    for (int64_t i = 0; i < qx; ++i) {
        while (u > 0 && !((double)(i + 1) * ly + (double)u * lx <= rhs))
            --u;
        while (a > 0 && (double)i * ly + (double)(a - 1) * lx >= rhs)
            --a;
        const double *row = pre + i * (qy + 1) * c;
        const double *under = row + u * c;
        const double *below_a = row + a * c;
        const double *all = row + qy * c;
        for (int64_t k = 0; k < c; ++k) {
            cu[k] += under[k];
            ca[k] += all[k] - below_a[k];
        }
        if (a < qy)
            any_above = 1;
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

/* gini_slope_walk (Figure 12): greedy intercept walk from (1, 1) over a
 * grid given by its row prefix sums (walk_eval).  scratch holds 4*c
 * doubles; out receives {best_gini, best_x, best_y}. */
static void slope_walk(const double *pre, int64_t qx, int64_t qy, int64_t c,
                 int64_t max_steps, double *scratch, double *out)
{
    double *total = scratch;
    double *cu = scratch + c;
    double *ca = scratch + 2 * c;
    double *co = scratch + 3 * c;
    for (int64_t k = 0; k < c; ++k)
        total[k] = 0.0;
    for (int64_t i = 0; i < qx; ++i)
        for (int64_t k = 0; k < c; ++k)
            total[k] += pre[(i * (qy + 1) + qy) * c + k];
    double n = 0.0;
    for (int64_t k = 0; k < c; ++k)
        n += total[k];
    double x_cap = (double)(qx + qy), y_cap = x_cap;
    double x = 1.0, y = 1.0;
    int above_any;
    double best = walk_eval(pre, total, qx, qy, c, x, y, n,
                            cu, ca, co, &above_any);
    double bx = x, by = y;
    for (int64_t step = 0; step < max_steps; ++step) {
        if (!above_any || (x >= x_cap && y >= y_cap))
            break;
        double gx, gy, g;
        int ax = above_any, ay = above_any;
        if (x < x_cap)
            gx = walk_eval(pre, total, qx, qy, c, x + 1.0, y, n,
                           cu, ca, co, &ax);
        else
            gx = 1.0 / 0.0;
        if (y < y_cap)
            gy = walk_eval(pre, total, qx, qy, c, x, y + 1.0, n,
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

/* Row prefix sums of a (qx, qy, c) float64 grid, its Y axis reversed when
 * flip is set (counts[:, ::-1]). */
static void row_prefix(const double *grid, int64_t qx, int64_t qy, int64_t c,
                       int flip, double *pre)
{
    for (int64_t i = 0; i < qx; ++i) {
        double *row = pre + i * (qy + 1) * c;
        for (int64_t k = 0; k < c; ++k)
            row[k] = 0.0;
        for (int64_t j = 0; j < qy; ++j) {
            const double *cell = grid + (i * qy + (flip ? qy - 1 - j : j)) * c;
            for (int64_t k = 0; k < c; ++k)
                row[(j + 1) * c + k] = row[j * c + k] + cell[k];
        }
    }
}

/* Count e of a slope_walks plan row's cube, by the row's kind. */
static double cube_count(const int64_t *p, int64_t e)
{
    if (p[4] == 1)
        return (double)PTR(const int32_t, p[5])[e];
    if (p[4] == 2)
        return (double)PTR(const int64_t, p[5])[e];
    return PTR(const double, p[5])[e];
}

/* Every walk of best_linear_candidate for one matrix set: per matrix, the
 * decimated grid (_decimated: fine cell (i, j) adds into coarse cell
 * (i / fx, j / fy)), then the walk on it and on its Y-flipped copy.  The
 * plan holds one row {qx, qy, fx, fy, kind, counts} per matrix, kind 0
 * for float64, 1 for int32 and 2 for int64 counts.  out receives six
 * doubles per matrix: {gini, x, y} unflipped, then flipped.  scratch
 * holds, for the largest coarse grid, cqx*cqy*c + cqx*(cqy+1)*c + 4*c
 * doubles.  Returns 1, before walking anything, when a count is negative,
 * not integer-valued or a grid totals 2**26 or more: outside that
 * envelope the partition sums need not be exact. */
int cmp_slope_walks(int64_t n_mats, const int64_t *plan, int64_t c,
                    int64_t max_steps, double *scratch, double *out)
{
    for (int64_t m = 0; m < n_mats; ++m) {
        const int64_t *p = plan + 6 * m;
        int64_t cells = p[0] * p[1] * c;
        double total = 0.0;
        for (int64_t e = 0; e < cells; ++e) {
            double v = cube_count(p, e);
            if (!(v >= 0.0 && v < 67108864.0) || v != (double)(int64_t)v)
                return 1;
            total += v;
            if (!(total < 67108864.0))
                return 1;
        }
    }
    for (int64_t m = 0; m < n_mats; ++m) {
        const int64_t *p = plan + 6 * m;
        int64_t qx = p[0], qy = p[1], fx = p[2], fy = p[3];
        int64_t cqx = (qx + fx - 1) / fx, cqy = (qy + fy - 1) / fy;
        double *grid = scratch + 4 * c;
        double *pre = grid + cqx * cqy * c;
        for (int64_t e = 0; e < cqx * cqy * c; ++e)
            grid[e] = 0.0;
        for (int64_t i = 0; i < qx; ++i)
            for (int64_t j = 0; j < qy; ++j)
                for (int64_t k = 0; k < c; ++k)
                    grid[((i / fx) * cqy + j / fy) * c + k] +=
                        cube_count(p, (i * qy + j) * c + k);
        for (int flip = 0; flip < 2; ++flip) {
            row_prefix(grid, cqx, cqy, c, flip, pre);
            slope_walk(pre, cqx, cqy, c, max_steps, scratch, out + 6 * m + 3 * flip);
        }
    }
    return 0;
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
_FUSED = [_I64, _PTR, _I64, _I64, _PTR, _PTR]

#: ``cmp_<name>`` -> (restype, argtypes) for every kernel in the library.
_SIGNATURES = {
    "part_accum": (ctypes.c_int, _FUSED),
    "part_accum_w": (ctypes.c_int, _FUSED[:5] + [_PTR] + _FUSED[5:]),
    "mset_accum32": (ctypes.c_int, _FUSED),
    "mset_accum64": (ctypes.c_int, _FUSED),
    "subset_splits": (ctypes.c_int, [_I64, _PTR, _I64, _PTR, _PTR, _PTR, _PTR]),
    "requantile": (None, [_I64, _PTR, _I64, _PTR, _PTR, _PTR]),
    "slope_walks": (ctypes.c_int, [_I64, _PTR, _I64, _I64, _PTR, _PTR]),
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
