"""The level arena: one tree level's preliminary parts in four arrays.

CMP fills every frontier node's histograms in one scan per level
(Figures 4 and 10) and keeps one dense block of counts per node (Figure
19).  A :class:`LevelArena` lays out every part of one tree's level in
row ranges of four arrays, split by how they merge: float64 ``counts``
and the int32/int64 ``cubes`` by add, the ``vmin``/``vmax`` extrema by
``fmin``/``fmax``.  Parts are views of their rows, so the level needs
one kernel plan, a worker's delta is the arena zeroed, and a resolve's
region fold is a row-range add.  The cube dtype is fixed at layout from
the table's record count, since a cell never holds more than the table.

A part's spec is ``(c, x, conts, cats)``: ``c`` classes; a matrix set's
``(x_attr, x_edges)`` or ``None``; ``(attr, edges)`` per class histogram
(per matrix: its y axis); ``(attr, n_categories)`` per category
histogram.  Builders make planned parts, which own no arrays until
their level is laid out, after the previous level's arena is gone; a
part used on its own is laid out alone on first use.  Layout gives a
part fresh, empty rows.
"""

from __future__ import annotations

import math

import numpy as np

from repro.core import native_scan
from repro.core.histogram import category_rows, class_labels, fill_category, fill_class
from repro.data.discretize import bin_index

#: Array kinds a part's blocks live in.
COUNTS, CUBES, EXTREMA = range(3)


def cube_dtype(n_records: int) -> np.dtype:
    """Count dtype of a level's cubes: 4-byte cells (Figure 19) for up to
    2**31 - 1 records, 8-byte cells beyond."""
    return np.dtype(np.int32 if n_records <= np.iinfo(np.int32).max else np.int64)


def _blocks(spec) -> list[tuple[int, tuple]]:
    """``(kind, shape)`` of each of a part's arrays, in plan order."""
    c, x, conts, cats = spec
    lead = () if x is None else (len(x[1]) + 1,)
    blocks = [(COUNTS, (c,))] + [(EXTREMA, lead)] * bool(lead)
    for __, edges in conts:
        q = len(edges) + 1
        blocks += [(CUBES if lead else COUNTS, (*lead, q, c)), (EXTREMA, (q,))]
    return blocks + [(COUNTS, (k, c)) for __, k in cats]


def _fold(mine, theirs) -> None:
    """Fold ``(counts, cubes, vmin, vmax)`` into another's: add, add,
    ``fmin``, ``fmax``."""
    for dst, src, op in zip(mine, theirs, (np.add, np.add, np.fmin, np.fmax)):
        op(dst, src, out=dst)


class LevelArena:
    """Every part of one tree's level in four contiguous arrays.

    ``parts`` (:class:`ArenaPart`) are laid out in order; ``n_records``
    is the table's record count, which fixes the cube dtype.  An arena
    does not pickle, since its parts' views would not survive it;
    worker deltas cross processes as their :meth:`arrays`.
    """

    def __init__(self, parts: list, n_records: int = 0) -> None:
        self.cube_dtype = cube_dtype(n_records)
        self._specs = [part._spec() for part in parts]
        #: Per part, ``(kind, shape, offset)`` of each block.
        self._layout: list[list[tuple[int, tuple, int]]] = []
        sizes = [0, 0, 0]
        for part, spec in zip(parts, self._specs):
            start, placed = list(sizes), []
            for kind, shape in _blocks(spec):
                placed.append((kind, shape, sizes[kind]))
                sizes[kind] += math.prod(shape)
            self._layout.append(placed)
            part.rows = tuple(zip(start, sizes))
        self._sizes = sizes
        self._allocate()
        #: Edges arrays the plans point at, with their addresses, by id.
        self._edges: dict[int, tuple[np.ndarray, int]] = {}
        for i, part in enumerate(parts):
            part.arena, part.index = self, i
            part._bind(self._views(i))

    def _allocate(self) -> None:
        counts, cubes, extrema = self._sizes
        self.counts = np.zeros(counts, dtype=np.float64)
        self.cubes = np.zeros(cubes, dtype=self.cube_dtype)
        self.vmin = np.full(extrema, np.inf)
        self.vmax = np.full(extrema, -np.inf)
        self._kernel_plan: native_scan.AccumPlan | None = None

    def __reduce__(self):
        raise TypeError("a level arena's views would not survive pickling")

    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """``(counts, cubes, vmin, vmax)``."""
        return self.counts, self.cubes, self.vmin, self.vmax

    def _views(self, index: int) -> list:
        """Part ``index``'s arrays in plan order; extrema as ``(vmin, vmax)``."""
        views = []
        for kind, shape, at in self._layout[index]:
            rows = slice(at, at + math.prod(shape))
            if kind == EXTREMA:
                views.append((self.vmin[rows], self.vmax[rows]))
            else:
                views.append((self.cubes if kind else self.counts)[rows].reshape(shape))
        return views

    @property
    def plan(self) -> native_scan.AccumPlan:
        """The arena's one kernel plan, built on first use: each part's
        block, words as the C source lays them out, with this arena's
        addresses."""
        if self._kernel_plan is None:
            base = [native_scan._addr(a) if len(a) else 0 for a in self.arrays()]
            item = (8, self.cube_dtype.itemsize)
            edges = self._edges
            blocks = []
            for (c, x, conts, cats), placed in zip(self._specs, self._layout):
                at = iter(
                    (base[2] + 8 * o, base[3] + 8 * o)
                    if kind == EXTREMA
                    else (base[kind] + item[kind] * o,)
                    for kind, __, o in placed
                )
                for e in ([x[1]] if x else []) + [e for __, e in conts]:
                    if id(e) not in edges:
                        edges[id(e)] = (e, native_scan._addr(e))
                words = [c, *next(at), len(conts), len(cats)]
                words += [x[0], len(x[1]), edges[id(x[1])][1], *next(at)] if x else [-1, 0, 0, 0, 0]
                for attr, e in conts:
                    words += [attr, len(e), edges[id(e)][1], *next(at), *next(at)]
                for attr, k in cats:
                    words += [attr, k, *next(at)]
                if x is None:
                    kernel, counted = "part_accum", "hist_accum"
                else:
                    kernel = "mset_accum32" if item[1] == 4 else "mset_accum64"
                    counted = "matrix_accum"
                attrs = [a for a, __ in conts + cats] + ([x[0]] if x else [])
                blocks.append(
                    (kernel, words, 1 + max(attrs, default=-1),
                     ((counted, len(conts)), ("cat_accum", len(cats))))
                )
            self._kernel_plan = native_scan.AccumPlan(blocks, (self.arrays(), edges))
        return self._kernel_plan

    def zeroed(self) -> "LevelArena":
        """The same layout over fresh arrays, with its own plan once
        filled: one worker's scan delta."""
        delta = object.__new__(LevelArena)
        delta.__dict__.update(self.__dict__)
        delta._allocate()
        return delta

    def merge(self, delta: "LevelArena | tuple[np.ndarray, ...]") -> None:
        """Fold in a :meth:`zeroed` delta, or its :meth:`arrays` as a
        forked worker ships them: one operation per array."""
        _fold(self.arrays(), delta.arrays() if isinstance(delta, LevelArena) else delta)

    def accumulate(self, index: int, X, y, weights) -> None:
        """Fold a batch into part ``index``'s rows: one fused kernel call
        on its slice of the plan, or the numpy reference below, which
        fills each histogram through its kind's one numpy body."""
        if native_scan.fused_accum(self.plan.parts[index], X, y, weights):
            return
        c, x, conts, cats = self._specs[index]
        views = iter(self._views(index))
        # Check every input before the first write, as the kernel does.
        labels = class_labels(y, c)
        cat_rows = [category_rows(X[:, attr], k) for attr, k in cats]
        next(views)[:] += np.bincount(labels, weights=weights, minlength=c)
        lead = None
        if x is not None:
            xv = X[:, x[0]]
            lead = bin_index(xv, x[1])
            for ext, op in zip(next(views), (np.fmin, np.fmax)):
                op.at(ext, lead, xv)  # NaN is ignored
        for attr, edges in conts:
            fill_class(next(views), *next(views), edges, X[:, attr], labels, weights, lead)
        for rows in cat_rows:
            fill_category(next(views), rows, labels, weights)


class ArenaPart:
    """A part a :class:`LevelArena` lays out.

    Subclasses give their spec (``_spec``) and take views of their
    arrays in plan order (``_bind``).  ``arena`` and ``index`` say where
    the part lives, ``rows`` its ``(lo, hi)`` ranges in the counts,
    cubes and extrema arrays.
    """

    arena: LevelArena | None = None
    index: int = -1
    rows: tuple = ()

    def laid_out(self) -> LevelArena:
        """The part's arena; a part used on its own is laid out alone."""
        if self.arena is None:
            LevelArena([self])
        return self.arena

    def nbytes(self) -> int:
        """Bytes the memory ledger charges (DESIGN.md §3): 8 per histogram
        count and 4 per cube cell, whatever the arena holds."""
        c, x, conts, cats = self._spec()
        cell = 8 if x is None else 4 * (len(x[1]) + 1)
        return c * sum([cell * (len(e) + 1) for __, e in conts] + [8 * k for __, k in cats])

    def _accumulate(self, X, y, weights, arena: LevelArena | None) -> None:
        """Fold a batch into this part's rows of ``arena`` (a worker's
        delta), by default of its own arena."""
        if len(y):
            (self.laid_out() if arena is None else arena).accumulate(
                self.index, X, y, weights
            )

    def _merge_rows(self, other: "ArenaPart") -> None:
        """Fold ``other``'s rows into this part's."""
        _fold(
            *(
                [a[lo:hi] for a, (lo, hi) in zip(p.laid_out().arrays(), (*p.rows, p.rows[2]))]
                for p in (self, other)
            )
        )
