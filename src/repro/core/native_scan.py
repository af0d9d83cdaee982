"""Dispatch to the native training kernels of :mod:`repro.core.native`.

The builders' per-chunk work — class-histogram and matrix accumulation —
and the post-scan analysis sweeps — the subset splits and the
``giniNegativeSlope`` intercept walk — are tight per-record loops that
numpy evaluates as a chain of whole-array temporaries.  The C versions
live in the one native library.  A scan part (``PartState`` or
``MatrixSet``) fills all its histograms with one :func:`fused_accum`
call per chunk, through its slice of its level arena's one
:class:`AccumPlan`, which holds every part's block back to back.  The
decide step's split searches over per-node aggregates are batched the
same way: one :func:`subset_splits` call per tree level, one
:func:`requantile` call per node's child grids, one :func:`slope_walks`
call per matrix set.  This module decides, call by call, whether a
kernel may stand in for the numpy expression:

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

Kernels bounds-check label/category indices and replicate
``np.searchsorted``'s sort-order comparison, under which NaN is larger
than every number.  The fused kernels mirror the histograms' numpy
bodies (:mod:`repro.core.histogram`): a label outside ``[0, c)`` raises
``ValueError``, a category code outside ``[-k, k)`` or NaN
``IndexError`` (negative codes wrap like numpy indexing), and nothing
is written before the whole chunk validates.  Every applied call is
counted (:func:`kernel_counts`): a fused call once per histogram it
filled, as ``hist_accum`` per class histogram, ``cat_accum`` per
category histogram and ``matrix_accum`` per matrix; a subset-split call
once per table as ``boundary_ginis``; a walks call once per walk as
``slope_walk``.  Re-quantiling, routing and forest scoring are not
counted.
"""

from __future__ import annotations

import ctypes
import threading

import numpy as np

from repro.core import native
from repro.core.native import available, force_numpy, warm_up

#: Class-count width at which the sweep kernels decline: numpy's sum
#: switches from plain sequential to pairwise/SIMD accumulation at 8
#: elements, and only the sequential order is replicated in C.
_MAX_SEQUENTIAL_CLASSES = 8

#: Per-process tally of applied kernel calls, by tally name (the module
#: docstring says what each counts).  Plain int
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


def _count(name: str, calls: int = 1) -> None:
    """Record applied kernel calls (process-wide and per-thread)."""
    _COUNTS[name] += calls
    counts = getattr(_THREAD_COUNTS, "counts", None)
    if counts is None:
        counts = {}
        _THREAD_COUNTS.counts = counts
    counts[name] = counts.get(name, 0) + calls


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


def _labels_i64(labels: object, n: int) -> np.ndarray | None:
    """Labels as a contiguous int64 array, or ``None`` if unsupported.

    Boolean arrays are refused — numpy fancy indexing treats them as
    masks, a different semantic the kernels do not replicate.
    """
    if (
        isinstance(labels, np.ndarray)
        and labels.dtype == np.int64
        and labels.shape == (n,)
        and labels.flags.c_contiguous
    ):
        return labels  # the common case, without numpy's generic checks
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


def _addr(a: np.ndarray) -> int:
    """Address of an array's first element.

    A ``ctypes`` view of the buffer costs a third of ``a.ctypes.data``,
    which serves the views ``ctypes`` refuses: read-only, empty or not
    C-contiguous.
    """
    try:
        return ctypes.addressof(ctypes.c_char.from_buffer(a))
    except (TypeError, ValueError):
        return a.ctypes.data


class AccumPlan:
    """A level arena's one kernel plan: every part's block in one table.

    ``blocks`` holds each part's ``(kernel, words, n_cols, counted)``,
    its words laid out as the C source documents; they are laid end to
    end, so :attr:`parts` gives each part's ``(kernel, address, n_cols,
    counted)`` slice for :func:`fused_accum`.  ``keep`` holds every
    array the table points into, so no address can dangle.  A plan
    never crosses processes.
    """

    __slots__ = ("table", "parts", "keep")

    def __init__(self, blocks: list, keep: tuple) -> None:
        self.table = np.array([w for block in blocks for w in block[1]], dtype=np.int64)
        self.keep = keep
        at = _addr(self.table) if len(self.table) else 0
        self.parts = []
        for kernel, words, n_cols, counted in blocks:
            self.parts.append((kernel, at, n_cols, counted))
            at += 8 * len(words)

    def __reduce__(self):
        raise TypeError("an AccumPlan holds process-local addresses")


def fused_accum(
    plan: tuple | None,
    X: np.ndarray,
    y: object,
    weights: object | None = None,
) -> bool:
    """Fold a batch into every histogram of one part of a level plan.

    Returns ``False`` (use numpy) without kernels, without a plan, or
    for an ``X`` the kernel cannot read.  Every label and category code
    is validated before anything is written; a bad one raises what the
    numpy path raises: ``ValueError`` for a label outside ``[0, c)``,
    ``IndexError`` for a category code.  Counts one call per histogram
    filled.
    """
    fns = native._resolve()
    if fns is None or not plan:
        return False
    kernel, address, n_cols, counted = plan
    if not (
        isinstance(X, np.ndarray)
        and X.dtype == np.float64
        and X.ndim == 2
        and X.shape[1] >= n_cols
    ):
        return False
    n = X.shape[0]
    rs, cs = X.strides
    if rs % 8 or cs % 8:
        return False
    lab = _labels_i64(y, n)
    if lab is None:
        return False
    if weights is None:
        rc = fns[kernel](n, _addr(X), rs // 8, cs // 8, _addr(lab), address)
    else:
        w = _weights_f64(weights, n)
        if w is None or kernel != "part_accum":
            return False
        rc = fns["part_accum_w"](
            n, _addr(X), rs // 8, cs // 8, _addr(lab), _addr(w), address
        )
    if rc == 1:
        raise ValueError("class label outside [0, n_classes)")
    if rc:
        raise IndexError("category code out of bounds for histogram counts")
    for name, calls in counted:
        if calls:
            _count(name, calls)
    return True


#: Count dtypes :func:`slope_walks` reads, by the kernel's kind code.
_CUBE_KINDS = {np.dtype(np.float64): 0, np.dtype(np.int32): 1, np.dtype(np.int64): 2}


def slope_walks(
    cubes: list[tuple[np.ndarray, int, int]], max_steps: int
) -> np.ndarray | None:
    """Every intercept walk of one matrix set in one call, or ``None``.

    ``cubes`` holds one ``(counts, fx, fy)`` per matrix: its C-contiguous
    ``(qx, qy, c)`` float64, int32 or int64 cube and the decimation
    factors of ``repro.core.linear._decimated``.  The kernel decimates
    each cube and walks it and its Y-flipped copy; row ``m`` of the
    ``(n, 2, 3)`` result holds ``(gini, x, y)`` of both walks, unflipped
    first.  Declines, before walking anything, when a cube falls outside
    the walk's exactness envelope: finite, non-negative, integer-valued
    counts totalling below 2**26, under which every partition sum *and*
    every sum of squared partition sizes (bounded by the squared total)
    is exactly representable, so the C walk's accumulation order is
    irrelevant and its result bit-identical to numpy's.  Counts two
    ``slope_walk`` calls per matrix, one per walk.
    """
    fns = native._resolve()
    if fns is None or not cubes:
        return None
    c = cubes[0][0].shape[-1]
    words: list[int] = []
    need = 0
    for counts, fx, fy in cubes:
        kind = _CUBE_KINDS.get(counts.dtype)
        if kind is None or counts.ndim != 3 or counts.shape[2] != c:
            return None
        if not counts.flags.c_contiguous or fx < 1 or fy < 1:
            return None
        qx, qy = counts.shape[:2]
        cqx, cqy = -(-qx // fx), -(-qy // fy)
        need = max(need, cqx * cqy * c + cqx * (cqy + 1) * c)
        words += (qx, qy, fx, fy, kind, _addr(counts))
    plan = np.array(words, dtype=np.int64)
    scratch = np.empty(4 * c + need, dtype=np.float64)
    out = np.empty((len(cubes), 2, 3), dtype=np.float64)
    if fns["slope_walks"](
        len(cubes), _addr(plan), c, max_steps, _addr(scratch), _addr(out)
    ):
        return None
    _count("slope_walk", 2 * len(cubes))
    return out


def subset_splits(
    tables: list[np.ndarray],
) -> list[tuple[np.ndarray | None, float]] | None:
    """Best subset split of every ``(k, c)`` category table, or ``None``.

    One call answers a whole level's categorical histograms.  Each answer
    is ``(left_mask, gini)`` exactly as
    ``CategoryHistogram.best_subset_split`` computes it, or
    ``(None, inf)`` for a table with fewer than two populated categories.
    Declines at ``n_classes >= 8`` (see :data:`_MAX_SEQUENTIAL_CLASSES`),
    and for a table that is not C-contiguous float64 or whose counts are
    negative, fractional or total 9e15 or more.  Counts one
    ``boundary_ginis`` call per table: each is one sweep of the subset
    partitions.
    """
    fns = native._resolve()
    if fns is None or not tables:
        return None
    c = tables[0].shape[-1]
    if c >= _MAX_SEQUENTIAL_CLASSES:
        return None
    words: list[int] = []
    for t in tables:
        if not (_contiguous_f64(t) and t.ndim == 2 and t.shape[1] == c):
            return None
        words += (t.shape[0], _addr(t))
    plan = np.array(words, dtype=np.int64)
    sizes = plan[0::2]
    k_max = int(sizes.max())
    scratch = np.empty(4 * c + k_max, dtype=np.float64)
    keys = np.empty(2 * k_max, dtype=np.int64)
    masks = np.zeros(int(sizes.sum()), dtype=np.bool_)
    ginis = np.empty(len(tables), dtype=np.float64)
    if fns["subset_splits"](
        len(tables), _addr(plan), c, _addr(scratch), _addr(keys), _addr(masks),
        _addr(ginis),
    ):
        return None
    _count("boundary_ginis", len(tables))
    out: list[tuple[np.ndarray | None, float]] = []
    at = 0
    for k, g in zip(sizes.tolist(), ginis.tolist()):
        out.append((masks[at : at + k] if g != np.inf else None, g))
        at += k
    return out


def requantile(
    rows: list[tuple[np.ndarray, np.ndarray, np.ndarray, int]],
) -> list[np.ndarray | None] | None:
    """Re-quantile many parent histograms in one call, or ``None``.

    ``rows`` holds one ``(counts, vmin, vmax, q)`` per child grid: a
    ``(qp, c)`` class table, its per-interval extrema and the child's
    interval count.  Each answer is what
    ``edges_from_histogram(edges, counts.sum(axis=1), q, vmin, vmax)``
    returns, or ``None`` where the kernel declined that row (a count
    negative, fractional or too large for exact sums, non-finite extrema
    on a populated interval, a NaN or signed-zero edge); the caller
    computes those rows with numpy.  Declines the whole call at
    ``n_classes >= 8`` or for an array outside the kernel's layout.  Not
    counted in :func:`kernel_counts`.
    """
    fns = native._resolve()
    if fns is None or not rows:
        return None
    c = rows[0][0].shape[-1]
    if c >= _MAX_SEQUENTIAL_CLASSES:
        return None
    words: list[int] = []
    for counts, vmin, vmax, q in rows:
        qp = len(vmin)
        if not (
            q >= 1
            and _contiguous_f64(counts)
            and counts.shape == (qp, c)
            and _contiguous_f64(vmin)
            and _contiguous_f64(vmax)
            and vmax.shape == (qp,)
        ):
            return None
        words += (qp, _addr(counts), _addr(vmin), _addr(vmax), q)
    plan = np.array(words, dtype=np.int64)
    qs = plan[4::5]
    out = np.empty(int(qs.sum()) - len(rows), dtype=np.float64)
    n_out = np.empty(len(rows), dtype=np.int64)
    scratch = np.empty(5 * int(plan[0::5].max()), dtype=np.float64)
    fns["requantile"](
        len(rows), _addr(plan), c, _addr(scratch), _addr(out), _addr(n_out)
    )
    edges: list[np.ndarray | None] = []
    at = 0
    for q, n in zip(qs.tolist(), n_out.tolist()):
        edges.append(out[at : at + n] if n >= 0 else None)
        at += q - 1
    return edges


__all__ = [
    "available",
    "warm_up",
    "force_numpy",
    "kernel_counts",
    "kernel_calls_total",
    "AccumPlan",
    "fused_accum",
    "slope_walks",
    "subset_splits",
    "requantile",
]
