"""Dispatch to the native training kernels of :mod:`repro.core.native`.

The builders' per-chunk work — class-histogram and matrix accumulation —
and the post-scan analysis sweeps — boundary ginis and the
``giniNegativeSlope`` intercept walk — are tight per-record loops that
numpy evaluates as a chain of whole-array temporaries.  The C versions
live in the one native library; this module decides, call by call,
whether a kernel may stand in for the numpy expression:

* **bit-identical to numpy** — every floating-point operation mirrors
  the numpy expression's op-by-op rounding, and the single
  order-sensitive reduction (``p2.sum(axis=-1)`` inside the gini) is only
  taken over class counts when ``n_classes < 8``, where numpy provably
  sums sequentially (its pairwise/SIMD machinery engages at 8 elements).
  Histogram/matrix counts, extrema and the walk's partition sums are
  integer-valued, hence exact in any order.
* **always optional** — when the library is unavailable (see
  :mod:`repro.core.native`) or a call falls outside the envelope above,
  the entry point returns ``False``/``None`` and the caller keeps its
  pure-numpy path, which remains the reference implementation.

Kernels bounds-check label/category indices (mirroring numpy's
``IndexError``, including negative-index wraparound) and replicate
``np.searchsorted``'s sort-order comparison, under which NaN is larger
than every number.  Every applied call is counted per kernel
(:func:`kernel_counts`); routing and forest scoring are not.
"""

from __future__ import annotations

import threading

import numpy as np

from repro.core import native
from repro.core.native import available, force_numpy, warm_up

#: Class-count width above which the sweep kernels decline: numpy's sum
#: switches from plain sequential to pairwise/SIMD accumulation at 8
#: elements, and only the sequential order is replicated in C.
_MAX_SEQUENTIAL_CLASSES = 8

#: Per-process tally of applied kernel calls, by kernel name.  Plain int
#: increments under the GIL; read via :func:`kernel_counts`.  With the
#: process scan backend, chunk-accumulation calls made inside forked
#: workers are counted in the worker and folded back into the parent's
#: tally via :func:`merge_counts` when the worker's delta is merged.
_COUNTS = {
    "hist_accum": 0,
    "cat_accum": 0,
    "matrix_accum": 0,
    "boundary_ginis": 0,
    "slope_walk": 0,
}

#: Per-thread tally mirroring :data:`_COUNTS`; lets a traced scan worker
#: thread attribute kernel calls to *its* chunk batch without cross-talk
#: from sibling workers.
_THREAD_COUNTS = threading.local()


def _count(name: str) -> None:
    """Record one applied kernel call (process-wide and per-thread)."""
    _COUNTS[name] += 1
    counts = getattr(_THREAD_COUNTS, "counts", None)
    if counts is None:
        counts = {}
        _THREAD_COUNTS.counts = counts
    counts[name] = counts.get(name, 0) + 1


def kernel_counts() -> dict[str, int]:
    """Snapshot of per-kernel applied-call counts for this process."""
    return dict(_COUNTS)


def kernel_calls_total() -> int:
    """Total applied kernel calls in this process (all kernels)."""
    return sum(_COUNTS.values())


def thread_kernel_counts() -> dict[str, int]:
    """Snapshot of applied-call counts made by the *calling thread*.

    Diffing two snapshots around a chunk batch gives the exact kernel
    activity of one scan worker thread — the thread-backend analogue of
    the before/after :func:`kernel_counts` diff a forked worker ships
    home.
    """
    counts = getattr(_THREAD_COUNTS, "counts", None)
    return dict(counts) if counts else {k: 0 for k in _COUNTS}


def merge_counts(delta: dict[str, int]) -> None:
    """Fold a worker's per-kernel call delta into this process's tally.

    The process scan backend ships each forked worker's count delta back
    with its scan delta; merging here keeps :func:`kernel_calls_total`
    (and therefore ``BuildStats.native_kernel_calls``) accurate across
    backends.  Unknown keys are ignored rather than invented.
    """
    for name, calls in delta.items():
        if name in _COUNTS and calls:
            _COUNTS[name] += int(calls)


# ---------------------------------------------------------------------------
# Dispatch helpers
# ---------------------------------------------------------------------------


def _f64_stride(a: np.ndarray) -> int | None:
    """Element stride of a 1-D float64 view, or ``None`` if unsupported."""
    if a.dtype != np.float64 or a.ndim != 1:
        return None
    stride = a.strides[0]
    if stride % 8 != 0:
        return None
    return stride // 8


def _labels_i64(labels: object, n: int) -> np.ndarray | None:
    """Labels as a contiguous int64 array, or ``None`` if unsupported.

    Boolean arrays are refused — numpy fancy indexing treats them as
    masks, a different semantic the kernels do not replicate.
    """
    arr = np.asarray(labels)
    if arr.ndim != 1 or len(arr) != n:
        return None
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.integer):
        return None
    return np.ascontiguousarray(arr, dtype=np.int64)


def _contiguous_f64(a: np.ndarray) -> bool:
    return a.dtype == np.float64 and a.flags.c_contiguous


# ---------------------------------------------------------------------------
# Kernel entry points (each returns whether the native path was applied)
# ---------------------------------------------------------------------------


def _weights_f64(weights: object, n: int) -> np.ndarray | None:
    """Weights as a contiguous float64 array, or ``None`` if unsupported."""
    arr = np.asarray(weights)
    if arr.ndim != 1 or len(arr) != n:
        return None
    if arr.dtype == np.bool_ or not np.issubdtype(arr.dtype, np.number):
        return None
    return np.ascontiguousarray(arr, dtype=np.float64)


def hist_accum(
    values: np.ndarray,
    labels: object,
    edges: np.ndarray,
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
    weights: object | None = None,
) -> bool:
    """Native ``ClassHistogram.update`` body; False = use numpy.

    With ``weights`` (per-record multiplicities, e.g. bootstrap draw
    counts), each record adds its weight instead of 1.  Integer-valued
    float64 weights on integer-valued counts stay exact, so the result
    is bit-identical to repeating each record ``weight`` times.
    """
    fns = native._resolve()
    if fns is None:
        return False
    vstride = _f64_stride(values)
    if vstride is None:
        return False
    lab = _labels_i64(labels, len(values))
    if lab is None:
        return False
    if not (
        _contiguous_f64(counts)
        and _contiguous_f64(edges)
        and _contiguous_f64(vmin)
        and _contiguous_f64(vmax)
    ):
        return False
    if weights is None:
        rc = fns["hist_accum"](
            len(values),
            vstride,
            values.ctypes.data,
            lab.ctypes.data,
            edges.ctypes.data,
            len(edges),
            counts.shape[1],
            counts.ctypes.data,
            vmin.ctypes.data,
            vmax.ctypes.data,
        )
    else:
        w = _weights_f64(weights, len(values))
        if w is None:
            return False
        rc = fns["hist_accum_w"](
            len(values),
            vstride,
            values.ctypes.data,
            lab.ctypes.data,
            w.ctypes.data,
            edges.ctypes.data,
            len(edges),
            counts.shape[1],
            counts.ctypes.data,
            vmin.ctypes.data,
            vmax.ctypes.data,
        )
    if rc:
        raise IndexError("class label out of bounds for histogram counts")
    _count("hist_accum")
    return True


def cat_accum(
    codes: np.ndarray,
    labels: object,
    counts: np.ndarray,
    weights: object | None = None,
) -> bool:
    """Native ``CategoryHistogram.update`` body; False = use numpy."""
    fns = native._resolve()
    if fns is None:
        return False
    vstride = _f64_stride(codes)
    if vstride is None:
        return False
    lab = _labels_i64(labels, len(codes))
    if lab is None:
        return False
    if not _contiguous_f64(counts):
        return False
    if weights is None:
        rc = fns["cat_accum"](
            len(codes),
            vstride,
            codes.ctypes.data,
            lab.ctypes.data,
            counts.shape[0],
            counts.shape[1],
            counts.ctypes.data,
        )
    else:
        w = _weights_f64(weights, len(codes))
        if w is None:
            return False
        rc = fns["cat_accum_w"](
            len(codes),
            vstride,
            codes.ctypes.data,
            lab.ctypes.data,
            w.ctypes.data,
            counts.shape[0],
            counts.shape[1],
            counts.ctypes.data,
        )
    if rc:
        raise IndexError("category code or class label out of bounds")
    _count("cat_accum")
    return True


def matrix_accum(
    x_bins: np.ndarray,
    y_values: np.ndarray,
    labels: object,
    y_edges: np.ndarray,
    counts: np.ndarray,
    vmin: np.ndarray,
    vmax: np.ndarray,
) -> bool:
    """Native ``HistogramMatrix.update_binned`` body; False = use numpy."""
    fns = native._resolve()
    if fns is None:
        return False
    if counts.dtype == np.int32:
        fn = fns["matrix_accum32"]
    elif counts.dtype == np.int64:
        fn = fns["matrix_accum64"]
    else:
        return False
    ystride = _f64_stride(y_values)
    if ystride is None:
        return False
    lab = _labels_i64(labels, len(y_values))
    if lab is None:
        return False
    if not (
        x_bins.dtype == np.intp
        and x_bins.ndim == 1
        and x_bins.flags.c_contiguous
        and len(x_bins) == len(y_values)
        and counts.flags.c_contiguous
        and _contiguous_f64(y_edges)
        and _contiguous_f64(vmin)
        and _contiguous_f64(vmax)
    ):
        return False
    qx, qy, c = counts.shape
    rc = fn(
        len(y_values),
        x_bins.ctypes.data,
        ystride,
        y_values.ctypes.data,
        lab.ctypes.data,
        y_edges.ctypes.data,
        len(y_edges),
        qx,
        qy,
        c,
        counts.ctypes.data,
        vmin.ctypes.data,
        vmax.ctypes.data,
    )
    if rc:
        raise IndexError("x bin or class label out of bounds for matrix counts")
    _count("matrix_accum")
    return True


def boundary_ginis(cum: np.ndarray, totals: np.ndarray) -> np.ndarray | None:
    """Native boundary-gini sweep, or ``None`` to use numpy.

    Declines when ``n_classes >= 8``: beyond that numpy's class-axis sum
    switches to pairwise (possibly SIMD-dispatched) accumulation whose
    rounding the sequential C loop does not reproduce.
    """
    fns = native._resolve()
    if fns is None:
        return None
    b, c = cum.shape
    if c >= _MAX_SEQUENTIAL_CLASSES:
        return None
    if not (cum.flags.c_contiguous and totals.flags.c_contiguous):
        return None
    out = np.empty(b, dtype=np.float64)
    scratch = np.empty(2 * c, dtype=np.float64)
    fns["boundary_ginis"](
        b, c, cum.ctypes.data, totals.ctypes.data, out.ctypes.data, scratch.ctypes.data
    )
    _count("boundary_ginis")
    return out


def slope_walk(
    counts: np.ndarray, max_steps: int
) -> tuple[float, float, float] | None:
    """Native intercept walk: ``(best_gini, best_x, best_y)`` or ``None``.

    Requires finite, non-negative, integer-valued counts totalling below
    2**26 — the exactness precondition under which every partition sum
    *and* every sum of squared partition sizes (``v @ v``, bounded by the
    squared total) is exactly representable, making the C walk's
    accumulation order irrelevant and its result bit-identical to numpy's.
    (Builder matrices always qualify; arbitrary float counts fall back.)
    """
    fns = native._resolve()
    if fns is None:
        return None
    if counts.ndim != 3:
        return None
    counts = np.ascontiguousarray(counts, dtype=np.float64)
    if not np.all(np.isfinite(counts)):
        return None
    if not np.array_equal(counts, np.trunc(counts)):
        return None
    if counts.size and (counts.min() < 0.0 or counts.sum() >= 2.0**26):
        return None
    qx, qy, c = counts.shape
    out = np.empty(3, dtype=np.float64)
    scratch = np.empty(4 * c, dtype=np.float64)
    fns["slope_walk"](
        qx, qy, c, counts.ctypes.data, max_steps, scratch.ctypes.data, out.ctypes.data
    )
    _count("slope_walk")
    return float(out[0]), float(out[1]), float(out[2])


__all__ = [
    "available",
    "warm_up",
    "force_numpy",
    "kernel_counts",
    "kernel_calls_total",
    "hist_accum",
    "cat_accum",
    "matrix_accum",
    "boundary_ginis",
    "slope_walk",
]
