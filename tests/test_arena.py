"""Tests for the level arena: many parts in one set of count arrays.

Every part of a level shares the arena's four arrays and one kernel
plan, so a kernel write that ran past its own part would land in a
neighbour's rows instead of outside an allocation, where AddressSanitizer
could not see it.  These tests lay out multi-part arenas of hostile
shapes, fill each part through the level plan and check it bit for bit
against the same part filled alone on the numpy path, and that no other
part's rows moved.  A standalone histogram's ``update`` must fill the
same counts as the histogram laid out as a one-part arena.
"""

import contextlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_scan
from repro.core.arena import LevelArena
from repro.core.builder import PartState
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.data.schema import Schema, categorical, continuous


@st.composite
def arena_cases(draw, max_n=60):
    """A schema, a list of part shapes over it and one batch per part."""
    n_cont = draw(st.integers(0, 4))
    n_cat = draw(st.integers(0 if n_cont else 1, 2))
    kinds = [("cont", 0)] * n_cont + [("cat", draw(st.integers(1, 5))) for _ in range(n_cat)]
    parts = []
    for __ in range(draw(st.integers(1, 8))):
        shape = draw(
            st.sampled_from(["hists", "weighted", "counts"] + ["matrix"] * bool(n_cont))
        )
        # q = 1 (no edges) is as likely as any other grid.
        qs = [draw(st.integers(1, 6)) for __ in range(n_cont)]
        parts.append((shape, qs, draw(st.integers(0, max_n))))
    return dict(
        kinds=kinds,
        c=draw(st.integers(2, 7)),
        parts=parts,
        wide=draw(st.booleans()),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class ArenaCase:
    """A drawn case made concrete: schema, planned parts and batches."""

    def __init__(self, case):
        rng = np.random.default_rng(case["seed"])
        self.case = case
        kinds = case["kinds"]
        self.schema = Schema(
            tuple(
                continuous(f"a{j}")
                if kind == "cont"
                else categorical(f"a{j}", tuple(str(k) for k in range(size)))
                for j, (kind, size) in enumerate(kinds)
            ),
            tuple(f"k{i}" for i in range(case["c"])),
        )
        cont = self.schema.continuous_indices()
        self.specs, self.batches = [], []
        for shape, qs, n in case["parts"]:
            edges = {j: np.sort(rng.normal(size=q - 1)) for j, q in zip(cont, qs)}
            x_attr = cont[int(rng.integers(0, len(cont)))] if shape == "matrix" else None
            self.specs.append((shape, edges, x_attr))
            X = np.empty((n, len(kinds)))
            for j, (kind, size) in enumerate(kinds):
                if kind == "cat":
                    X[:, j] = rng.integers(0, size, size=n)
                else:
                    col = np.round(rng.normal(size=n), 1)
                    col[rng.random(n) < 0.1] = np.nan
                    X[:, j] = col
            y = rng.integers(0, case["c"], size=n)
            w = rng.integers(1, 4, size=n).astype(np.float64) if shape == "weighted" else None
            self.batches.append((X, y, w))

    def part(self, i):
        shape, edges, x_attr = self.specs[i]
        return PartState.planned(
            i, self.schema, None if shape == "counts" else edges, x_attr
        )

    def arena(self, parts):
        return LevelArena(
            [p.accumulator for p in parts], 2**31 if self.case["wide"] else 0
        )


def outside(arena, part):
    """Copies of every array element outside ``part``'s rows."""
    counts, cubes, extrema = part.accumulator.rows
    return [
        np.concatenate([array[:lo], array[hi:]])
        for array, (lo, hi) in zip(arena.arrays(), (counts, cubes, extrema, extrema))
    ]


def assert_parts_equal(a, b):
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    if a.mset is None:
        assert a.hists.keys() == b.hists.keys()
        for j, h in a.hists.items():
            np.testing.assert_array_equal(h.counts, b.hists[j].counts)
            if hasattr(h, "vmin"):
                np.testing.assert_array_equal(h.vmin, b.hists[j].vmin)
                np.testing.assert_array_equal(h.vmax, b.hists[j].vmax)
        return
    ma, mb = a.mset, b.mset
    np.testing.assert_array_equal(ma.x_stats.vmin, mb.x_stats.vmin)
    np.testing.assert_array_equal(ma.x_stats.vmax, mb.x_stats.vmax)
    for j, m in ma.matrices.items():
        assert m.counts.dtype == mb.matrices[j].counts.dtype
        np.testing.assert_array_equal(m.counts, mb.matrices[j].counts)
        np.testing.assert_array_equal(m.y_stats.vmin, mb.matrices[j].y_stats.vmin)
        np.testing.assert_array_equal(m.y_stats.vmax, mb.matrices[j].y_stats.vmax)
    for j, h in ma.categorical.items():
        np.testing.assert_array_equal(h.counts, mb.categorical[j].counts)


def check_parts_stay_in_their_rows(case):
    ac = ArenaCase(case)
    parts = [ac.part(i) for i in range(len(ac.specs))]
    arena = ac.arena(parts)
    before = native_scan.kernel_counts()
    for part, (X, y, w) in zip(parts, ac.batches):
        others = outside(arena, part)
        part.update(X, y, w)
        for got, want in zip(outside(arena, part), others):
            np.testing.assert_array_equal(got, want)
    after = native_scan.kernel_counts()
    if native_scan.available():
        # Every filled part took its slice of the level plan.
        want = {"hist_accum": 0, "cat_accum": 0, "matrix_accum": 0}
        for part, (__, y, __) in zip(parts, ac.batches):
            if len(y) and part.mset is not None:
                want["matrix_accum"] += len(part.mset.matrices)
                want["cat_accum"] += len(part.mset.categorical)
            elif len(y):
                n_cont = sum(hasattr(h, "vmin") for h in part.hists.values())
                want["hist_accum"] += n_cont
                want["cat_accum"] += len(part.hists) - n_cont
        assert {k: after[k] - before[k] for k in want} == want
    for i, part in enumerate(parts):
        X, y, w = ac.batches[i]
        with native_scan.force_numpy():
            alone = ac.part(i)
            ac.arena([alone])
            alone.update(X, y, w)
        assert_parts_equal(part, alone)


class TestCrossPartOverflow:
    @given(arena_cases())
    @settings(max_examples=80, deadline=None)
    def test_parts_stay_in_their_rows(self, case):
        check_parts_stay_in_their_rows(case)

    @pytest.mark.fuzz
    @given(arena_cases(max_n=1_000))
    @settings(max_examples=400, deadline=None)
    def test_parts_stay_in_their_rows_wide(self, case):
        check_parts_stay_in_their_rows(case)

    def test_one_plan_per_arena(self):
        case = dict(
            kinds=[("cont", 0), ("cont", 0), ("cat", 3)], c=3,
            parts=[("hists", [4, 1], 20), ("matrix", [3, 5], 20), ("counts", [2, 2], 5)],
            wide=False, seed=3,
        )
        ac = ArenaCase(case)
        parts = [ac.part(i) for i in range(3)]
        arena = ac.arena(parts)
        for part, (X, y, w) in zip(parts, ac.batches):
            part.update(X, y, w)
        plan = arena.plan
        assert arena.plan is plan and all(plan.parts)
        # Each part's block sits contiguously inside the one table.
        table = native_scan._addr(plan.table)
        addresses = [address for __, address, __, __ in plan.parts]
        assert addresses == sorted(addresses)
        assert table == addresses[0] and addresses[-1] < table + plan.table.nbytes


class TestZeroedDelta:
    def test_delta_has_its_own_arrays_and_plan(self):
        case = dict(
            kinds=[("cont", 0), ("cat", 2)], c=2,
            parts=[("hists", [3], 30), ("weighted", [2], 30)], wide=False, seed=1,
        )
        ac = ArenaCase(case)
        parts = [ac.part(i) for i in range(2)]
        arena = ac.arena(parts)
        delta = arena.zeroed()
        for part, (X, y, w) in zip(parts, ac.batches):
            part.update(X, y, w, delta)
        assert not arena.counts.any()  # the level's own rows are untouched
        for a, b in zip(arena.arrays(), delta.arrays()):
            assert a is not b and a.shape == b.shape and a.dtype == b.dtype
        if native_scan.available():
            assert delta.plan is not arena.plan
        arena.merge(delta)
        for i, part in enumerate(parts):
            X, y, w = ac.batches[i]
            with native_scan.force_numpy():
                alone = ac.part(i)
                alone.update(X, y, w)
            assert_parts_equal(part, alone)


@st.composite
def standalone_cases(draw):
    """One histogram's kind, grid or category count, classes and batch."""
    return dict(
        kind=draw(st.sampled_from(["cont", "cat"])),
        # q = 1 (no edges) is as likely as any other grid.
        q=draw(st.integers(1, 6)),
        c=draw(st.integers(2, 7)),
        n=draw(st.integers(1, 80)),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestStandaloneUpdate:
    @given(standalone_cases(), st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_update_equals_one_part_arena(self, case, numpy_only):
        rng = np.random.default_rng(case["seed"])
        q, c, n = case["q"], case["c"], case["n"]
        y = rng.integers(0, c, size=n)
        if case["kind"] == "cont":
            edges = np.unique(np.round(rng.normal(size=q - 1), 1))
            col = np.round(rng.normal(size=n), 1)
            col[rng.random(n) < 0.2] = np.nan
            col[rng.random(n) < 0.2] = rng.choice(edges) if len(edges) else 0.0
            make = lambda: ClassHistogram(edges, c)  # noqa: E731
        else:
            col = rng.integers(-q, q, size=n).astype(np.float64)  # negatives wrap
            make = lambda: CategoryHistogram(q, c)  # noqa: E731
        alone = make()
        alone.update(col, y)
        part = PartState(0, c, {0: make()})
        before = native_scan.kernel_counts()
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            part.update(col[:, None], y)
        if native_scan.available() and not numpy_only:
            tally = "hist_accum" if case["kind"] == "cont" else "cat_accum"
            assert native_scan.kernel_counts()[tally] == before[tally] + 1
        got = part.hists[0]
        np.testing.assert_array_equal(got.counts, alone.counts)
        if case["kind"] == "cont":
            np.testing.assert_array_equal(got.vmin, alone.vmin)
            np.testing.assert_array_equal(got.vmax, alone.vmax)


class TestBadInputWritesNothing:
    @pytest.mark.parametrize("numpy_only", [False, True])
    def test_bad_code_after_good_columns(self, numpy_only):
        # The kernel and the numpy reference both check before any write.
        schema = Schema((continuous("x"), categorical("c", ("a", "b", "d"))), ("n", "p"))
        part = PartState.planned(0, schema, {0: np.array([0.0])})
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            with pytest.raises(IndexError):
                part.update(np.array([[1.0, 0.0], [-1.0, 7.0]]), np.array([0, 1]))
        assert not part.class_counts.any()
        assert not any(hist.counts.any() for hist in part.hists.values())
        assert np.isposinf(part.hists[0].vmin).all()
