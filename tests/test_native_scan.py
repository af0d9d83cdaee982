"""Tests for the native training kernels (`repro.core.native_scan`).

Three layers:

* **kernel equivalence** — each C kernel reproduces its numpy expression
  bit for bit on adversarial inputs (NaN values, negative category codes,
  strided columns, int32/int64 matrix cubes), and raises the same
  ``IndexError`` numpy would on out-of-range indices;
* **dispatch discipline** — wrappers decline (returning the caller to the
  numpy path) on dtypes, layouts and value ranges outside the proven
  bit-identity envelope, and honour ``CMP_NO_NATIVE`` / ``force_numpy``;
* **build-level identity** — full CMP builds match with kernels on and
  off (spot-checked here; the backend × kernel matrix lives in
  ``test_parallel.py``), and concurrent first-time compiles from separate
  processes are safe (the satellite compile-race bugfix).
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_build, native_scan
from repro.core.builder import PartState
from repro.core.gini import _boundary_ginis_numpy, boundary_ginis
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.linear import GridLine, gini_slope_walk
from repro.core.matrix import HistogramMatrix, MatrixSet
from repro.data.discretize import bin_index
from repro.data.schema import Schema, continuous

pytestmark = [
    pytest.mark.skipif(
        native_build.compiler() is None, reason="no C compiler on this machine"
    ),
    # Under CMP_NO_NATIVE the kernels are off by design and the numpy
    # paths are exercised by the whole rest of the suite; the
    # enabled-mode run covers the disabled path explicitly via the
    # subprocess test below.
    pytest.mark.skipif(
        bool(os.environ.get("CMP_NO_NATIVE")),
        reason="native kernels disabled via CMP_NO_NATIVE",
    ),
]

ENV = {**os.environ, "PYTHONPATH": "src"}


def test_kernels_available():
    assert native_scan.available()
    assert native_scan.warm_up()


# ---------------------------------------------------------------------------
# Kernel equivalence vs the numpy expressions
# ---------------------------------------------------------------------------


class TestHistAccum:
    def _numpy(self, values, labels, edges, q, c):
        counts = np.zeros((q, c))
        vmin = np.full(q, np.inf)
        vmax = np.full(q, -np.inf)
        bins = bin_index(values, edges)
        np.add.at(counts, (bins, np.asarray(labels)), 1.0)
        with np.errstate(invalid="ignore"):
            np.minimum.at(vmin, bins, values)
            np.maximum.at(vmax, bins, values)
        return counts, vmin, vmax

    def test_matches_numpy_with_nans(self, rng):
        n, c = 4_000, 3
        edges = np.sort(rng.normal(size=16))
        values = rng.normal(size=n)
        values[::53] = np.nan  # sorts above every number -> last bin
        labels = rng.integers(0, c, size=n)
        ref = self._numpy(values, labels, edges, len(edges) + 1, c)
        counts = np.zeros((len(edges) + 1, c))
        vmin = np.full(len(edges) + 1, np.inf)
        vmax = np.full(len(edges) + 1, -np.inf)
        assert native_scan.hist_accum(values, labels, edges, counts, vmin, vmax)
        np.testing.assert_array_equal(counts, ref[0])
        np.testing.assert_array_equal(vmin, ref[1])
        np.testing.assert_array_equal(vmax, ref[2])

    def test_strided_column_view(self, rng):
        X = np.ascontiguousarray(rng.normal(size=(500, 5)))
        column = X[:, 3]  # stride 5 doubles
        labels = rng.integers(0, 2, size=500)
        edges = np.array([-0.5, 0.5])
        ref = self._numpy(column, labels, edges, 3, 2)
        counts = np.zeros((3, 2))
        vmin = np.full(3, np.inf)
        vmax = np.full(3, -np.inf)
        assert native_scan.hist_accum(column, labels, edges, counts, vmin, vmax)
        np.testing.assert_array_equal(counts, ref[0])
        np.testing.assert_array_equal(vmin, ref[1])
        np.testing.assert_array_equal(vmax, ref[2])

    def test_histogram_update_identical_native_vs_numpy(self, rng):
        edges = np.sort(rng.normal(size=7))
        values = rng.normal(size=1_000)
        labels = rng.integers(0, 4, size=1_000)
        on = ClassHistogram(edges, 4)
        on.update(values, labels)
        with native_scan.force_numpy():
            off = ClassHistogram(edges, 4)
            off.update(values, labels)
        np.testing.assert_array_equal(on.counts, off.counts)
        np.testing.assert_array_equal(on.vmin, off.vmin)
        np.testing.assert_array_equal(on.vmax, off.vmax)

    def test_label_out_of_range_raises(self, rng):
        values = rng.normal(size=10)
        labels = np.full(10, 7, dtype=np.int64)
        with pytest.raises(IndexError):
            native_scan.hist_accum(
                values,
                labels,
                np.array([0.0]),
                np.zeros((2, 3)),
                np.full(2, np.inf),
                np.full(2, -np.inf),
            )

    def test_declines_off_envelope(self, rng):
        edges = np.array([0.0])
        counts = np.zeros((2, 2))
        vmin = np.full(2, np.inf)
        vmax = np.full(2, -np.inf)
        f32 = rng.normal(size=8).astype(np.float32)
        labels = np.zeros(8, dtype=np.int64)
        assert not native_scan.hist_accum(f32, labels, edges, counts, vmin, vmax)
        values = rng.normal(size=8)
        assert not native_scan.hist_accum(
            values, np.zeros(8, dtype=bool), edges, counts, vmin, vmax
        )
        assert not native_scan.hist_accum(
            values, np.zeros(7, dtype=np.int64), edges, counts, vmin, vmax
        )


class TestCatAccum:
    def test_matches_numpy_with_negative_codes(self, rng):
        n, ncat, c = 2_000, 6, 3
        codes = rng.integers(0, ncat, size=n).astype(np.float64)
        codes[::71] = -2.0  # numpy fancy indexing wraps negatives
        labels = rng.integers(0, c, size=n)
        ref = np.zeros((ncat, c))
        np.add.at(ref, (np.asarray(codes, dtype=np.intp), np.asarray(labels)), 1.0)
        counts = np.zeros((ncat, c))
        assert native_scan.cat_accum(codes, labels, counts)
        np.testing.assert_array_equal(counts, ref)

    def test_category_histogram_identical(self, rng):
        codes = rng.integers(0, 5, size=800).astype(np.float64)
        labels = rng.integers(0, 2, size=800)
        on = CategoryHistogram(5, 2)
        on.update(codes, labels)
        with native_scan.force_numpy():
            off = CategoryHistogram(5, 2)
            off.update(codes, labels)
        np.testing.assert_array_equal(on.counts, off.counts)

    @pytest.mark.parametrize("bad", [99.0, -99.0, float("nan"), 1e19])
    def test_out_of_range_code_raises(self, bad):
        codes = np.array([0.0, bad])
        labels = np.array([0, 0], dtype=np.int64)
        with pytest.raises(IndexError):
            native_scan.cat_accum(codes, labels, np.zeros((4, 2)))


def mset_xy(x_edges, y_edges, c, dtype=np.int32):
    """A two-attribute matrix set (x = attribute 0, one y matrix)."""
    schema = Schema((continuous("x"), continuous("y")), tuple(f"k{i}" for i in range(c)))
    ms = MatrixSet.create(schema, 0, {0: x_edges, 1: y_edges})
    m = ms.matrices[1]
    m.counts = m.counts.astype(dtype)
    return ms


def plan_of(ms):
    return native_scan.mset_plan(
        ms.class_counts,
        ms.x_attr,
        ms.x_edges,
        ms.x_stats,
        list(ms.matrices.items()),
        list(ms.categorical.items()),
    )


class TestMatrixAccum:
    """The matrix cube fill, now one table of the fused set kernel."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_numpy(self, rng, dtype):
        n, qx, qy, c = 3_000, 9, 11, 3
        x_edges = np.sort(rng.normal(size=qx - 1))
        y_edges = np.sort(rng.normal(size=qy - 1))
        xv = rng.normal(size=n)
        yv = rng.normal(size=n)
        labels = rng.integers(0, c, size=n)
        x_bins = bin_index(xv, x_edges)
        y_bins = bin_index(yv, y_edges)
        ref = np.zeros((qx, qy, c), dtype=dtype)
        np.add.at(ref, (x_bins, y_bins, np.asarray(labels)), 1)
        rmin = np.full(qy, np.inf)
        rmax = np.full(qy, -np.inf)
        np.minimum.at(rmin, y_bins, yv)
        np.maximum.at(rmax, y_bins, yv)
        ms = mset_xy(x_edges, y_edges, c, dtype)
        assert native_scan.fused_accum(plan_of(ms), np.column_stack([xv, yv]), labels)
        m = ms.matrices[1]
        assert m.counts.dtype == dtype
        np.testing.assert_array_equal(m.counts, ref)
        np.testing.assert_array_equal(m.y_stats.vmin, rmin)
        np.testing.assert_array_equal(m.y_stats.vmax, rmax)

    def test_update_binned_identical(self, rng):
        m_off = HistogramMatrix(0, 1, np.array([0.0]), np.array([-1.0, 1.0]), 2)
        ms = mset_xy(np.array([0.0]), np.array([-1.0, 1.0]), 2)
        xv = rng.normal(size=600)
        yv = rng.normal(size=600)
        labels = rng.integers(0, 2, size=600)
        before = native_scan.kernel_counts()["matrix_accum"]
        ms.update(np.column_stack([xv, yv]), labels)
        assert native_scan.kernel_counts()["matrix_accum"] == before + 1
        with native_scan.force_numpy():
            m_off.update_binned(bin_index(xv, m_off.x_edges), yv, labels)
        m_on = ms.matrices[1]
        np.testing.assert_array_equal(m_on.counts, m_off.counts)
        np.testing.assert_array_equal(m_on.y_stats.vmin, m_off.y_stats.vmin)
        np.testing.assert_array_equal(m_on.y_stats.vmax, m_off.y_stats.vmax)

    def test_unsupported_count_dtype_declines(self, rng):
        ms = mset_xy(np.array([0.0]), np.array([0.0]), 2, np.float64)
        plan = plan_of(ms)
        assert plan is False
        X = rng.normal(size=(4, 2))
        assert not native_scan.fused_accum(plan, X, np.zeros(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# Fused part accumulation: PartState.update vs its numpy body
# ---------------------------------------------------------------------------

LAYOUTS = ("c", "f", "strided", "reversed")


def laid_out(X, layout):
    """``X``'s values in another memory layout (a copy or a view)."""
    if layout == "f":
        return np.asfortranarray(X)
    if layout == "strided":
        big = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
        big[::2, ::2] = X
        return big[::2, ::2]
    if layout == "reversed":
        return np.ascontiguousarray(X[::-1])[::-1]
    return X


@st.composite
def part_cases(draw, max_cont=6, max_cat=4, max_n=120):
    """A part's attributes and a stream of batches for it."""
    kinds = [("cont", draw(st.integers(1, 200))) for _ in range(draw(st.integers(1, max_cont)))]
    kinds += [("cat", draw(st.integers(1, 6))) for _ in range(draw(st.integers(0, max_cat)))]
    return dict(
        kinds=kinds,
        c=draw(st.integers(2, 12)),
        sizes=draw(st.lists(st.integers(0, max_n), min_size=1, max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        layout=draw(st.sampled_from(LAYOUTS)),
        special=draw(st.booleans()),
        weighted=draw(st.booleans()),
        label_dtype=draw(st.sampled_from([np.int64, np.int32])),
    )


class PartCase:
    """A drawn case made concrete: column kinds, grids and batches."""

    def __init__(self, case):
        rng = np.random.default_rng(case["seed"])
        self.c = case["c"]
        self.kinds = [case["kinds"][i] for i in rng.permutation(len(case["kinds"]))]
        self.edges = {}
        for j, (kind, size) in enumerate(self.kinds):
            if kind == "cont":
                edges = np.sort(rng.normal(size=size - 1))
                self.edges[j] = np.round(edges, 1) if case["special"] else edges
        self.batches = [self._batch(rng, n, case) for n in case["sizes"]]

    def _batch(self, rng, n, case):
        X = np.empty((n, len(self.kinds)))
        for j, (kind, size) in enumerate(self.kinds):
            if kind == "cat":
                X[:, j] = rng.integers(-size, size, size=n)
                continue
            col = rng.normal(size=n)
            if case["special"]:
                col = np.round(col, 1)
                pick = rng.random(n)
                if size > 1:
                    on_edge = pick < 0.2
                    col[on_edge] = rng.choice(self.edges[j], size=int(on_edge.sum()))
                col[(pick >= 0.2) & (pick < 0.3)] = np.nan
                col[(pick >= 0.3) & (pick < 0.35)] = np.inf
                col[(pick >= 0.35) & (pick < 0.4)] = -np.inf
            X[:, j] = col
        y = rng.integers(0, self.c, size=n).astype(case["label_dtype"])
        w = rng.integers(1, 5, size=n).astype(np.float64) if case["weighted"] else None
        return laid_out(X, case["layout"]), y, w

    def part(self):
        hists = {
            j: (
                ClassHistogram(self.edges[j], self.c)
                if kind == "cont"
                else CategoryHistogram(size, self.c)
            )
            for j, (kind, size) in enumerate(self.kinds)
        }
        return PartState(0, self.c, hists)

    def n_hists(self, kind):
        return sum(k == kind for k, __ in self.kinds)


def assert_parts_equal(a, b):
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    assert a.hists.keys() == b.hists.keys()
    for j, h in a.hists.items():
        np.testing.assert_array_equal(h.counts, b.hists[j].counts)
        if isinstance(h, ClassHistogram):
            np.testing.assert_array_equal(h.vmin, b.hists[j].vmin)
            np.testing.assert_array_equal(h.vmax, b.hists[j].vmax)


def numpy_part(pc, batches):
    with native_scan.force_numpy(), np.errstate(invalid="ignore"):
        ref = pc.part()
        for X, y, w in batches:
            ref.update(X, y, w)
    return ref


def check_fused_part(case):
    pc = PartCase(case)
    fused = pc.part()
    before = native_scan.kernel_counts()
    for X, y, w in pc.batches:
        fused.update(X, y, w)
    after = native_scan.kernel_counts()
    filled = sum(len(y) > 0 for __, y, __ in pc.batches)
    # The fused entry filled every histogram: no silent numpy fallback.
    assert after["hist_accum"] - before["hist_accum"] == filled * pc.n_hists("cont")
    assert after["cat_accum"] - before["cat_accum"] == filled * pc.n_hists("cat")
    assert_parts_equal(fused, numpy_part(pc, pc.batches))


def corrupt(pc, case_rng):
    """One batch with a single bad label or category code."""
    X, y, w = pc.batches[0]
    X, y = np.array(X), np.array(y)
    if len(y) == 0:
        X, y = np.zeros((1, len(pc.kinds))), np.zeros(1, dtype=np.int64)
        w = None if w is None else np.ones(1)
    r = int(case_rng.integers(0, len(y)))
    cats = [j for j, (kind, __) in enumerate(pc.kinds) if kind == "cat"]
    if cats and case_rng.random() < 0.5:
        j = cats[int(case_rng.integers(0, len(cats)))]
        ncat = pc.kinds[j][1]
        X[r, j] = case_rng.choice([ncat, -ncat - 1, np.nan, 1e19, -np.inf])
    else:
        y[r] = case_rng.choice([-1, pc.c, pc.c + 7])
    return X, y, w


def raised(fn):
    try:
        with np.errstate(invalid="ignore"):
            fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestFusedPartAccum:
    @given(part_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, case):
        check_fused_part(case)

    @pytest.mark.fuzz
    @given(part_cases(max_n=2_000))
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_wide(self, case):
        check_fused_part(case)

    @given(part_cases(max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_bad_input_raises_like_numpy(self, case):
        pc = PartCase(case)
        X, y, w = corrupt(pc, np.random.default_rng(case["seed"]))
        fused = pc.part()
        got = raised(lambda: fused.update(X, y, w))
        with native_scan.force_numpy():
            want = raised(lambda: pc.part().update(X, y, w))
        assert want in (ValueError, IndexError)
        assert got is want
        # Validation precedes every write.
        assert_parts_equal(fused, pc.part())

    def test_weighted_equals_repeated(self, rng):
        pc = PartCase(
            dict(kinds=[("cont", 9), ("cat", 3)], c=3, sizes=[200], seed=5,
                 layout="c", special=False, weighted=True, label_dtype=np.int64)
        )
        (X, y, w), = pc.batches
        weighted, repeated = pc.part(), pc.part()
        weighted.update(X, y, w)
        reps = w.astype(np.int64)
        repeated.update(np.repeat(X, reps, axis=0), np.repeat(y, reps))
        assert_parts_equal(weighted, repeated)


class TestPartPlanLifecycle:
    """A part's pointer plan never goes stale or crosses copies."""

    CASE = dict(
        kinds=[("cont", 12), ("cont", 5), ("cat", 4)],
        c=3,
        sizes=[150, 150],
        seed=11,
        layout="c",
        special=True,
        weighted=False,
        label_dtype=np.int64,
    )

    def test_update_after_pickle_round_trip(self):
        pc = PartCase(self.CASE)
        part = pc.part()
        part.update(*pc.batches[0])
        assert part._plan
        copy = pickle.loads(pickle.dumps(part))
        assert copy._plan is None
        copy.update(*pc.batches[1])
        assert_parts_equal(copy, numpy_part(pc, pc.batches))
        # The copy wrote through its own arrays, not the original's.
        assert_parts_equal(part, numpy_part(pc, pc.batches[:1]))

    def test_update_after_clone_empty(self):
        pc = PartCase(self.CASE)
        part = pc.part()
        part.update(*pc.batches[0])
        clone = part.clone_empty()
        assert clone._plan is None
        clone.update(*pc.batches[1])
        assert_parts_equal(clone, numpy_part(pc, pc.batches[1:]))
        assert_parts_equal(part, numpy_part(pc, pc.batches[:1]))

    def test_merge_then_update(self):
        pc = PartCase(self.CASE)
        part, other = pc.part(), pc.part()
        part.update(*pc.batches[0])
        other.update(*pc.batches[1])
        part.merge_from(other)
        part.update(*pc.batches[0])
        assert_parts_equal(part, numpy_part(pc, pc.batches + pc.batches[:1]))

    def test_plan_refuses_to_pickle(self):
        pc = PartCase(self.CASE)
        part = pc.part()
        part.update(*pc.batches[0])
        with pytest.raises(TypeError):
            pickle.dumps(part._plan)


class TestNoSilentFallback:
    """Every non-empty part update of a real build takes the fused entry."""

    @pytest.mark.parametrize("builder", ["CMP", "CMP-B", "CMP-S", "CLOUDS", "bagged"])
    def test_builds_take_the_fused_entry(self, builder, monkeypatch):
        from repro.baselines.clouds import CloudsBuilder
        from repro.core.cmp_b import CMPBBuilder
        from repro.core.cmp_full import CMPBuilder
        from repro.core.cmp_s import CMPSBuilder
        from repro.data.synthetic import generate_agrawal
        from repro.ensemble import BaggedForestBuilder
        from repro.eval.experiments import default_config

        real = native_scan.fused_accum
        taken = []

        def spy(plan, X, y, weights=None):
            taken.append(real(plan, X, y, weights))
            return taken[-1]

        updates = []
        for owner in (PartState, MatrixSet):
            original = owner.update

            def counted(self, X, y, *rest, _original=original):
                updates.append(len(y) > 0)
                return _original(self, X, y, *rest)

            monkeypatch.setattr(owner, "update", counted)
        monkeypatch.setattr(native_scan, "fused_accum", spy)
        cfg = default_config()
        make = {
            "CMP": lambda: CMPBuilder(cfg),
            "CMP-B": lambda: CMPBBuilder(cfg),
            "CMP-S": lambda: CMPSBuilder(cfg),
            "CLOUDS": lambda: CloudsBuilder(cfg),
            "bagged": lambda: BaggedForestBuilder(cfg, n_trees=2),
        }[builder]
        make().build(generate_agrawal("F7", 20_000, seed=1))
        assert sum(updates) > 0
        assert len(taken) == sum(updates)
        assert all(taken)


class TestBoundaryGinis:
    def test_matches_numpy(self, rng):
        cum = rng.integers(0, 50, size=(500, 4)).astype(np.float64).cumsum(axis=0)
        totals = cum[-1].copy()
        native = native_scan.boundary_ginis(cum, totals)
        assert native is not None
        np.testing.assert_array_equal(native, _boundary_ginis_numpy(cum, totals))

    def test_dispatching_wrapper_identical(self, rng):
        cum = rng.integers(0, 9, size=(64, 3)).astype(np.float64).cumsum(axis=0)
        totals = cum[-1].copy()
        on = boundary_ginis(cum, totals)
        with native_scan.force_numpy():
            off = boundary_ginis(cum, totals)
        np.testing.assert_array_equal(on, off)

    def test_degenerate_all_zero_row(self):
        # A zero totals vector makes every boundary degenerate: gini 0.
        cum = np.zeros((3, 2))
        out = native_scan.boundary_ginis(cum, np.zeros(2))
        np.testing.assert_array_equal(out, np.zeros(3))

    def test_declines_at_eight_classes(self):
        # numpy's class-axis sum goes pairwise at 8 elements; the
        # sequential C sum is only bit-identical below that.
        assert native_scan.boundary_ginis(np.zeros((4, 8)), np.zeros(8)) is None
        assert native_scan.boundary_ginis(np.zeros((4, 7)), np.zeros(7)) is not None

    def test_declines_non_contiguous(self, rng):
        wide = rng.integers(0, 5, size=(10, 8)).astype(np.float64)
        assert native_scan.boundary_ginis(wide[:, ::2], wide[0, ::2]) is None


class TestSlopeWalk:
    def test_matches_python_walk(self, rng):
        for _ in range(30):
            qx = int(rng.integers(2, 12))
            qy = int(rng.integers(2, 12))
            c = int(rng.integers(2, 5))
            counts = rng.integers(0, 25, size=(qx, qy, c)).astype(np.float64)
            with native_scan.force_numpy():
                ref_gini, ref_line = gini_slope_walk(counts)
            got_gini, got_line = gini_slope_walk(counts)
            assert got_gini == ref_gini
            assert (got_line.x, got_line.y) == (ref_line.x, ref_line.y)

    def test_flipped_view_matches(self, rng):
        counts = rng.integers(0, 10, size=(6, 7, 2)).astype(np.float64)
        flipped = counts[:, ::-1, :]  # giniPositiveSlope's view
        with native_scan.force_numpy():
            ref = gini_slope_walk(flipped)
        got = gini_slope_walk(flipped)
        assert got[0] == ref[0]
        assert isinstance(got[1], GridLine)

    def test_declines_outside_exactness_envelope(self):
        fractional = np.full((3, 3, 2), 0.5)
        assert native_scan.slope_walk(fractional, 16) is None
        negative = np.full((3, 3, 2), -1.0)
        assert native_scan.slope_walk(negative, 16) is None
        nan = np.zeros((3, 3, 2))
        nan[0, 0, 0] = np.nan
        assert native_scan.slope_walk(nan, 16) is None
        huge = np.zeros((3, 3, 2))
        huge[0, 0, 0] = 2.0**27
        assert native_scan.slope_walk(huge, 16) is None
        assert native_scan.slope_walk(np.zeros((2, 2)), 16) is None


# ---------------------------------------------------------------------------
# Dispatch state: counters, force_numpy, CMP_NO_NATIVE
# ---------------------------------------------------------------------------


class TestDispatchState:
    def test_kernel_counts_advance(self, rng):
        before = native_scan.kernel_counts()
        hist = ClassHistogram(np.array([0.0]), 2)
        hist.update(rng.normal(size=64), rng.integers(0, 2, size=64))
        after = native_scan.kernel_counts()
        assert after["hist_accum"] == before["hist_accum"] + 1
        assert native_scan.kernel_calls_total() == sum(after.values())

    def test_force_numpy_restores(self):
        assert native_scan.available()
        with native_scan.force_numpy():
            assert not native_scan.available()
            with native_scan.force_numpy():
                assert not native_scan.available()
        assert native_scan.available()

    def test_cmp_no_native_disables_kernels(self):
        code = (
            "from repro.core import native_scan\n"
            "import numpy as np\n"
            "assert not native_scan.available()\n"
            "assert native_scan.boundary_ginis(np.zeros((2, 2)), np.zeros(2)) is None\n"
            "from repro.core.histogram import ClassHistogram\n"
            "h = ClassHistogram(np.array([0.0]), 2)\n"
            "h.update(np.array([-1.0, 1.0]), np.array([0, 1]))\n"
            "assert h.counts.sum() == 2\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**ENV, "CMP_NO_NATIVE": "1"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# Compile cache: concurrency (satellite bugfix) and keying
# ---------------------------------------------------------------------------


class TestCompileRace:
    def test_two_processes_compile_concurrently(self, tmp_path):
        """Two fresh processes racing on a cold cache must both succeed.

        Regression for the compile race: both build the same cache key at
        once; per-pid temp files + atomic rename mean neither can load a
        half-written library.
        """
        code = (
            "from repro.core import native, native_scan\n"
            "assert native_scan.warm_up()\n"
            "assert native.native_available()\n"
            "print('ok')\n"
        )
        env = {**ENV, "CMP_NATIVE_CACHE": str(tmp_path / "cache")}
        env.pop("CMP_NO_NATIVE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=240)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        published = list((tmp_path / "cache").glob("*.so"))
        assert len(published) == 1  # one library holds every kernel
        leftovers = list((tmp_path / "cache").glob("*.tmp*"))
        assert leftovers == []

    def test_cache_key_covers_compiler_and_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMP_NATIVE_CACHE", str(tmp_path))
        a = native_build.library_path("k", "int f(void){return 1;}", "cc")
        b = native_build.library_path("k", "int f(void){return 2;}", "cc")
        c = native_build.library_path("k", "int f(void){return 1;}", "gcc")
        assert len({a, b, c}) == 3
        assert all(p.startswith(str(tmp_path)) for p in (a, b, c))

    def test_load_library_reuses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMP_NATIVE_CACHE", str(tmp_path))
        source = "int cmp_answer(void) { return 42; }\n"
        lib = native_build.load_library("answer", source)
        assert lib is not None
        assert lib.cmp_answer() == 42
        (path,) = tmp_path.glob("answer-*.so")
        stamp = path.stat().st_mtime_ns
        again = native_build.load_library("answer", source)
        assert again.cmp_answer() == 42
        assert path.stat().st_mtime_ns == stamp  # no recompile
