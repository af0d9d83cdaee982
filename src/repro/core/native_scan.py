"""Dispatch to the native training kernels of :mod:`repro.core.native`.

The builders' per-chunk work — class-histogram and matrix accumulation —
and the post-scan analysis sweeps — boundary ginis and the
``giniNegativeSlope`` intercept walk — are tight per-record loops that
numpy evaluates as a chain of whole-array temporaries.  The C versions
live in the one native library.  A scan part (``PartState`` or
``MatrixSet``) fills all its histograms with one :func:`fused_accum`
call per chunk, through an :class:`AccumPlan` it builds once
(:func:`part_plan`, :func:`mset_plan`).  The decide step's split
searches over per-node aggregates are batched the same way: one
:func:`subset_splits` call per tree level, one :func:`requantile` call
per node's child grids, one :func:`slope_walks` call per matrix set.
This module decides, call by call, whether a kernel may stand in for
the numpy expression:

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
than every number.  The per-histogram kernels mirror numpy's fancy
indexing (``IndexError``, negative indices wrap).  The fused kernels
mirror the part's numpy body, which counts classes with ``bincount``
first: a label outside ``[0, c)`` raises ``ValueError``, a bad category
code ``IndexError``, and nothing is written before the whole chunk
validates.  Every applied call is counted per kernel, a fused call once
per histogram it filled (:func:`kernel_counts`), a subset-split call
once per table as ``boundary_ginis`` and a walks call once per walk as
``slope_walk``; re-quantiling, routing and forest scoring are not
counted.
"""

from __future__ import annotations

import ctypes
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
    """One accumulator's arrays, packed once for a fused kernel.

    ``table`` is the kernel's int64 plan (layout in the C source): class
    count width, the histograms' shapes, and their arrays' addresses.
    ``keep`` holds every array it points into, so no address can dangle.
    A plan is valid while its accumulator keeps exactly these arrays:
    owners drop it whenever they replace one (matrix widening) and never
    pickle or share it, since its addresses mean nothing in another
    process.
    """

    __slots__ = ("kernel", "table", "address", "n_cols", "counted", "keep")

    def __init__(self, kernel: str, words: list[int], n_cols: int, counted, keep) -> None:
        self.kernel = kernel
        self.table = np.array(words, dtype=np.int64)
        self.address = _addr(self.table)
        self.n_cols = n_cols
        self.counted = counted
        self.keep = keep

    def __reduce__(self):
        raise TypeError("an AccumPlan holds process-local addresses")


def _hist_rows(hists, shape: tuple, dtype, keep: list) -> list[int] | None:
    """Flat ``{attr, m, edges, counts, vmin, vmax}`` rows of continuous
    histograms or matrix y axes, or ``None`` when one lies outside the
    kernels' layout.  ``shape`` is ``(c,)`` for histograms, whose counts
    must be ``(q, c)``, and ``(qx, c)`` for cubes, ``(qx, q, c)``; every
    count array must be C-contiguous ``dtype``."""
    *lead, c = shape
    rows: list[int] = []
    for attr, edges, counts, vmin, vmax in hists:
        q = len(edges) + 1
        if not (
            _contiguous_f64(edges)
            and counts.dtype == dtype
            and counts.flags.c_contiguous
            and counts.shape == (*lead, q, c)
            and _contiguous_f64(vmin)
            and _contiguous_f64(vmax)
            and vmin.shape == vmax.shape == (q,)
        ):
            return None
        keep += (edges, counts, vmin, vmax)
        rows += (attr, q - 1, _addr(edges), _addr(counts), _addr(vmin), _addr(vmax))
    return rows


def _cat_rows(cats, c: int, keep: list) -> list[int] | None:
    """Flat ``{attr, ncat, counts}`` rows of categorical histograms, or
    ``None`` when one lies outside the kernels' layout."""
    rows: list[int] = []
    for attr, h in cats:
        counts = h.counts
        if not (_contiguous_f64(counts) and counts.ndim == 2 and counts.shape[1] == c):
            return None
        keep.append(counts)
        rows += (attr, counts.shape[0], _addr(counts))
    return rows


def _plan(kernel, class_counts, x_words, hist_rows, cat_rows, keep, counted) -> AccumPlan:
    """Assemble a plan; ``x_words`` are a matrix set's x-axis words."""
    keep.append(class_counts)
    n_hist, n_cat = len(hist_rows) // 6, len(cat_rows) // 3
    words = [len(class_counts), _addr(class_counts), n_hist, n_cat, *x_words]
    return AccumPlan(
        kernel,
        words + hist_rows + cat_rows,
        max([-1, x_words[0], *hist_rows[::6], *cat_rows[::3]]) + 1,
        ((counted, n_hist), ("cat_accum", n_cat)),
        keep,
    )


def _class_counts_ok(class_counts: np.ndarray) -> bool:
    return class_counts.ndim == 1 and _contiguous_f64(class_counts)


def part_plan(class_counts: np.ndarray, hists, cats) -> AccumPlan | bool:
    """The plan of a ``PartState``: ``hists`` and ``cats`` are its
    ``(attr, histogram)`` pairs, continuous and categorical.

    Returns ``False`` when some array lies outside the kernels' layout
    (the part then always takes its numpy path).
    """
    if not _class_counts_ok(class_counts):
        return False
    c, keep = len(class_counts), []
    hist_rows = _hist_rows(
        [(j, h.edges, h.counts, h.vmin, h.vmax) for j, h in hists],
        (c,),
        np.float64,
        keep,
    )
    cat_rows = _cat_rows(cats, c, keep)
    if hist_rows is None or cat_rows is None:
        return False
    no_x = [-1, 0, 0, 0, 0]
    return _plan("part_accum", class_counts, no_x, hist_rows, cat_rows, keep, "hist_accum")


def mset_plan(
    class_counts: np.ndarray, x_attr: int, x_edges: np.ndarray, x_stats, matrices, cats
) -> AccumPlan | bool:
    """The plan of a ``MatrixSet``: ``matrices`` and ``cats`` are its
    ``(attr, matrix)`` and ``(attr, histogram)`` pairs.

    Every cube must share one count dtype, int32 or int64; otherwise (or
    for any other array outside the kernels' layout) returns ``False``.
    """
    qx = len(x_edges) + 1
    vmin, vmax = x_stats.vmin, x_stats.vmax
    if not (
        _class_counts_ok(class_counts)
        and _contiguous_f64(x_edges)
        and _contiguous_f64(vmin)
        and _contiguous_f64(vmax)
        and vmin.shape == vmax.shape == (qx,)
    ):
        return False
    dtype = matrices[0][1].counts.dtype if matrices else np.dtype(np.int32)
    if dtype not in (np.int32, np.int64):
        return False
    c, keep = len(class_counts), [x_edges, vmin, vmax]
    hist_rows = _hist_rows(
        [(j, m.y_edges, m.counts, m.y_stats.vmin, m.y_stats.vmax) for j, m in matrices],
        (qx, c),
        dtype,
        keep,
    )
    cat_rows = _cat_rows(cats, c, keep)
    if hist_rows is None or cat_rows is None:
        return False
    x_words = [x_attr, qx - 1, _addr(x_edges), _addr(vmin), _addr(vmax)]
    kernel = "mset_accum32" if dtype == np.int32 else "mset_accum64"
    return _plan(kernel, class_counts, x_words, hist_rows, cat_rows, keep, "matrix_accum")


def fused_accum(
    plan: AccumPlan | bool,
    X: np.ndarray,
    y: object,
    weights: object | None = None,
) -> bool:
    """Fold a batch into every histogram of a planned accumulator.

    One native call replaces one per histogram.  Returns ``False`` (use
    numpy) without kernels, without a plan, or for an ``X`` the kernel
    cannot read.  Every label and category code is validated before
    anything is written; a bad one raises what the numpy path raises:
    ``ValueError`` for a label outside ``[0, c)``, ``IndexError`` for a
    category code.  Counts one call per histogram filled, so the tally
    matches the per-histogram dispatch it replaces.
    """
    fns = native._resolve()
    if fns is None or not plan:
        return False
    if not (
        isinstance(X, np.ndarray)
        and X.dtype == np.float64
        and X.ndim == 2
        and X.shape[1] >= plan.n_cols
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
        rc = fns[plan.kernel](n, _addr(X), rs // 8, cs // 8, _addr(lab), plan.address)
    else:
        w = _weights_f64(weights, n)
        if w is None or plan.kernel != "part_accum":
            return False
        rc = fns["part_accum_w"](
            n, _addr(X), rs // 8, cs // 8, _addr(lab), _addr(w), plan.address
        )
    if rc == 1:
        raise ValueError("class label outside [0, n_classes)")
    if rc:
        raise IndexError("category code out of bounds for histogram counts")
    for name, calls in plan.counted:
        if calls:
            _count(name, calls)
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
    scratch = np.empty(qx * (qy + 1) * c + 4 * c, dtype=np.float64)
    fns["slope_walk"](
        qx, qy, c, counts.ctypes.data, max_steps, scratch.ctypes.data, out.ctypes.data
    )
    _count("slope_walk")
    return float(out[0]), float(out[1]), float(out[2])


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
    :func:`slope_walk`'s exactness envelope.  Counts two ``slope_walk``
    calls per matrix, one per walk.
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
    Declines like :func:`boundary_ginis` at ``n_classes >= 8``, and for a
    table that is not C-contiguous float64 or whose counts are negative,
    fractional or total 9e15 or more.  Counts one ``boundary_ginis`` call
    per table: each is one sweep of the subset partitions.
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
    "hist_accum",
    "cat_accum",
    "AccumPlan",
    "part_plan",
    "mset_plan",
    "fused_accum",
    "boundary_ginis",
    "slope_walk",
    "slope_walks",
    "subset_splits",
    "requantile",
]
