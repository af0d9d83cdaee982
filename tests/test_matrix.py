"""Tests for bivariate histogram matrices (CMP-B's data structure)."""

import contextlib
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_scan
from repro.core.arena import LevelArena, cube_dtype
from repro.core.histogram import ClassHistogram
from repro.core.matrix import MatrixSet, pseudo_histogram
from repro.data.schema import Schema, categorical, continuous


def schema3():
    return Schema(
        (continuous("x"), continuous("y"), categorical("c", ("a", "b"))),
        ("n", "p"),
    )


def random_data(n=500, seed=0):
    rng = np.random.default_rng(seed)
    X = np.column_stack(
        [rng.uniform(0, 10, n), rng.uniform(0, 10, n), rng.integers(0, 2, n)]
    ).astype(float)
    y = rng.integers(0, 2, n)
    return X, y


def edges3():
    return {0: np.array([3.0, 6.0]), 1: np.array([2.0, 5.0, 8.0])}


class TestHistogramMatrix:
    def test_projections_match_1d_histograms(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        m = ms.matrices[1]
        # X marginal equals a direct 1-D histogram of x.
        hx = ClassHistogram(edges3()[0], 2)
        hx.update(X[:, 0], y)
        np.testing.assert_array_equal(m.x_marginal_counts(), hx.counts)
        hy = ClassHistogram(edges3()[1], 2)
        hy.update(X[:, 1], y)
        np.testing.assert_array_equal(m.y_marginal_counts(), hy.counts)

    def test_cell_counts(self):
        ms = MatrixSet.create(schema3(), 0, edges3())
        X = np.array([[1.0, 1.0, 0.0], [7.0, 9.0, 1.0]])
        y = np.array([0, 1])
        ms.update(X, y)
        m = ms.matrices[1]
        assert m.counts[0, 0, 0] == 1  # x=1 -> col 0, y=1 -> row 0, class 0
        assert m.counts[2, 3, 1] == 1  # x=7 -> col 2, y=9 -> row 3, class 1
        assert m.counts.sum() == 2

    def test_slice_conserves_counts(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        m = ms.matrices[1]
        total = m.y_marginal_counts()
        left = m.y_marginal_counts(0, 2)
        right = m.y_marginal_counts(2, None)
        np.testing.assert_array_equal(left + right, total)

    def test_merge(self):
        X, y = random_data()
        ms1 = MatrixSet.create(schema3(), 0, edges3())
        ms2 = MatrixSet.create(schema3(), 0, edges3())
        ms1.update(X[:250], y[:250])
        ms2.update(X[250:], y[250:])
        ms1.merge_from(ms2)
        full = MatrixSet.create(schema3(), 0, edges3())
        full.update(X, y)
        np.testing.assert_array_equal(
            ms1.matrices[1].counts, full.matrices[1].counts
        )
        np.testing.assert_array_equal(ms1.class_counts, full.class_counts)

    def test_merge_requires_same_x(self):
        ms1 = MatrixSet.create(schema3(), 0, edges3())
        ms2 = MatrixSet.create(schema3(), 1, edges3())
        with pytest.raises(ValueError, match="share the X attribute"):
            ms1.merge_from(ms2)


class TestMatrixSetMarginals:
    def test_x_marginal_slice_zeroes_outside(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        sliced = ms.x_marginal(1, 2)
        assert sliced.counts[0].sum() == 0
        assert sliced.counts[2].sum() == 0
        full = ms.x_marginal()
        np.testing.assert_array_equal(sliced.counts[1], full.counts[1])

    def test_x_marginal_given_y(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        # Condition on y rows [0, 2): x marginal of records with y <= 5.
        cond = ms.x_marginal_given_y(1, 0, 2)
        mask = X[:, 1] <= 5.0
        direct = ClassHistogram(edges3()[0], 2)
        direct.update(X[mask, 0], y[mask])
        np.testing.assert_array_equal(cond.counts, direct.counts)

    def test_y_marginal_rows(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        rows = ms.y_marginal_rows(1, 1, 3)
        assert rows.counts[0].sum() == 0
        assert rows.counts[3].sum() == 0

    def test_categorical_histograms(self):
        X, y = random_data()
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(X, y)
        cat = ms.categorical[2]
        assert cat.counts.sum() == len(y)

    def test_x_attr_must_be_continuous(self):
        with pytest.raises(ValueError, match="continuous"):
            MatrixSet.create(schema3(), 2, edges3())

    def test_atomic_propagates_to_marginal(self):
        # All x values identical inside column 0 -> marginal flags atomic.
        ms = MatrixSet.create(schema3(), 0, edges3())
        X = np.array([[1.5, 1.0, 0.0], [1.5, 9.0, 1.0], [7.0, 2.0, 0.0]])
        ms.update(X, np.array([0, 1, 0]))
        marg = ms.x_marginal()
        assert marg.atomic_intervals()[0]

    def test_nbytes_positive(self):
        ms = MatrixSet.create(schema3(), 0, edges3())
        assert ms.nbytes() > 0


def schema_xy(c=2):
    return Schema((continuous("x"), continuous("y")), tuple(f"k{i}" for i in range(c)))


class TestAxisStats:
    def test_update_and_merge(self):
        # Extrema merge as their sets' arena rows, by fmin / fmax.
        edges = {0: np.array([2.0, 5.0]), 1: np.array([5.0])}
        a = MatrixSet.create(schema_xy(), 0, edges)
        a.update(np.array([[1.0, 0.0], [9.0, 0.0]]), np.array([0, 0]))
        b = MatrixSet.create(schema_xy(), 0, edges)
        b.update(np.array([[-1.0, 0.0]]), np.array([0]))
        a.merge_from(b)
        assert a.x_stats.vmin[0] == -1.0
        assert a.x_stats.vmax[0] == 1.0
        assert a.x_stats.vmax[2] == 9.0

    def test_nan_is_ignored(self):
        ms = MatrixSet.create(schema_xy(), 0, {0: np.array([0.0, 2.0]), 1: np.array([0.0])})
        x = np.array([np.nan, 1.0, -1.0, np.nan])  # bins 2, 1, 0, 2
        ms.update(np.column_stack([x, np.zeros(4)]), np.zeros(4, dtype=np.int64))
        a = ms.x_stats
        np.testing.assert_array_equal(a.vmin, [-1.0, 1.0, np.inf])
        np.testing.assert_array_equal(a.vmax, [-1.0, 1.0, -np.inf])


class TestNaNExtrema:
    """A NaN value lands in the last interval's counts, never in extrema."""

    X = np.array([[np.nan, 0.5], [1.0, 0.5], [-1.0, -0.5]])
    y = np.array([0, 1, 0])

    def filled(self, x_attr, rows, numpy_only):
        schema = Schema((continuous("a"), continuous("b")), ("n", "p"))
        edges = {0: np.array([0.0]), 1: np.array([0.0])}
        ms = MatrixSet.create(schema, x_attr, edges)
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            ms.update(self.X[rows], self.y[rows])
        return ms

    @pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
    def test_y_axis(self, numpy_only):
        h = self.filled(1, slice(None), numpy_only).y_marginal(0)
        np.testing.assert_array_equal(h.counts.sum(axis=1), [1.0, 2.0])
        np.testing.assert_array_equal(h.vmin, [-1.0, 1.0])
        np.testing.assert_array_equal(h.vmax, [-1.0, 1.0])

    @pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
    def test_x_axis(self, numpy_only):
        ms = self.filled(0, slice(None), numpy_only)
        np.testing.assert_array_equal(ms.x_stats.vmin, [-1.0, 1.0])
        np.testing.assert_array_equal(ms.x_stats.vmax, [-1.0, 1.0])

    @pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
    def test_nan_only_interval_keeps_infinities(self, numpy_only):
        h = self.filled(1, [0, 2], numpy_only).y_marginal(0)
        np.testing.assert_array_equal(h.vmin, [-1.0, np.inf])
        np.testing.assert_array_equal(h.vmax, [-1.0, -np.inf])


class TestPseudoHistogram:
    def test_behaves_like_real_histogram(self):
        X, y = random_data()
        real = ClassHistogram(edges3()[0], 2)
        real.update(X[:, 0], y)
        pseudo = pseudo_histogram(real.counts, real.edges, real.vmin, real.vmax, 2)
        np.testing.assert_array_equal(pseudo.boundary_ginis(), real.boundary_ginis())
        np.testing.assert_array_equal(
            pseudo.atomic_intervals(), real.atomic_intervals()
        )


class TestCountExactness:
    """Regression: float32 counts silently saturate at 2**24 = 16 777 216.

    The count cube is integer, and a level arena fixes it at int64 when
    the table holds more records than an int32 cell can count; totals
    must stay exact far past the float32 saturation point.
    """

    EDGES = {0: np.array([5.0]), 1: np.array([5.0])}

    def test_counts_exact_past_float32_saturation(self):
        ms = MatrixSet.create(schema_xy(), 0, self.EDGES)
        batch = 1 << 20
        X = np.zeros((batch, 2))
        labels = np.zeros(batch, dtype=np.int64)
        ms.update(X, labels)
        # Double the single cell by merging copies: 2**20 -> 2**25.
        for _ in range(5):
            other = MatrixSet.create(schema_xy(), 0, self.EDGES)
            other.matrices[1].counts[:] = ms.matrices[1].counts
            ms.merge_from(other)
        expected = batch * 32  # 2**25, well past float32's 2**24 plateau
        assert int(ms.matrices[1].counts[0, 0, 0]) == expected
        # And incremental updates keep counting exactly from there.
        ms.update(X[:3], labels[:3])
        assert int(ms.matrices[1].counts[0, 0, 0]) == expected + 3
        # float32 would have plateaued: (2**24) + 1 == 2**24 in float32.
        assert np.float32(2**24) + np.float32(1) == np.float32(2**24)

    def test_widens_to_int64_before_int32_overflow(self):
        # The width is fixed once, at layout, from the table's record
        # count (no record is materialised): a cell never holds more than
        # the table's records.
        assert MatrixSet.create(schema_xy(), 0, self.EDGES).matrices[1].counts.dtype == np.int32
        assert cube_dtype(2**31 - 1) == np.int32
        assert cube_dtype(2**31) == np.int64
        for n, dtype in ((2**31 - 1, np.int32), (2**31, np.int64)):
            ms = MatrixSet.planned(schema_xy(), 0, self.EDGES)
            arena = LevelArena([ms], n)
            assert arena.cube_dtype == dtype
            assert ms.matrices[1].counts.dtype == dtype
            assert ms.nbytes() == 4 * 2 * 2 * 2  # the ledger's 4-byte cells
        # The int64 arena's kernel (mset_accum64) counts like numpy.
        X, y = random_data(300)
        X = X[:, :2]
        fused = MatrixSet.planned(schema_xy(), 0, self.EDGES)
        LevelArena([fused], 2**31)
        before = native_scan.kernel_counts()["matrix_accum"]
        fused.update(X, y)
        if native_scan.available():
            assert native_scan.kernel_counts()["matrix_accum"] == before + 1
        with native_scan.force_numpy():
            ref = MatrixSet.planned(schema_xy(), 0, self.EDGES)
            LevelArena([ref], 2**31)
            ref.update(X, y)
        assert_msets_equal(fused, ref)


# ---------------------------------------------------------------------------
# Fused MatrixSet.update vs its numpy body
# ---------------------------------------------------------------------------


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
def mset_cases(draw, max_n=120):
    """A matrix set's attributes, a stream of batches and a cube width."""
    kinds = [("cont", draw(st.integers(1, 200))) for _ in range(draw(st.integers(1, 6)))]
    kinds += [("cat", draw(st.integers(1, 6))) for _ in range(draw(st.integers(0, 4)))]
    return dict(
        kinds=kinds,
        c=draw(st.integers(2, 12)),
        sizes=draw(st.lists(st.integers(0, max_n), min_size=1, max_size=4)),
        seed=draw(st.integers(0, 2**32 - 1)),
        layout=draw(st.sampled_from(["c", "f", "strided", "reversed"])),
        special=draw(st.booleans()),
        wide=draw(st.booleans()),
    )


class MsetCase:
    """A drawn case made concrete: schema, grids, x axis and batches."""

    def __init__(self, case):
        rng = np.random.default_rng(case["seed"])
        kinds = [case["kinds"][i] for i in rng.permutation(len(case["kinds"]))]
        attrs = [
            continuous(f"a{j}")
            if kind == "cont"
            else categorical(f"a{j}", tuple(str(k) for k in range(size)))
            for j, (kind, size) in enumerate(kinds)
        ]
        self.schema = Schema(tuple(attrs), tuple(f"k{i}" for i in range(case["c"])))
        cont = self.schema.continuous_indices()
        self.edges = {}
        for j in cont:
            edges = np.sort(rng.normal(size=kinds[j][1] - 1))
            self.edges[j] = np.round(edges, 1) if case["special"] else edges
        self.x_attr = cont[int(rng.integers(0, len(cont)))]
        self.n_records = 2**31 if case["wide"] else 0
        self.batches = []
        for n in case["sizes"]:
            X = np.empty((n, len(kinds)))
            for j, (kind, size) in enumerate(kinds):
                if kind == "cat":
                    X[:, j] = rng.integers(-size, size, size=n)
                    continue
                col = rng.normal(size=n)
                if case["special"]:
                    col = np.round(col, 1)
                    pick = rng.random(n)
                    col[pick < 0.1] = np.nan
                    col[(pick >= 0.1) & (pick < 0.15)] = np.inf
                    col[(pick >= 0.15) & (pick < 0.2)] = -np.inf
                X[:, j] = col
            y = rng.integers(0, case["c"], size=n)
            self.batches.append((laid_out(X, case["layout"]), y))

    def mset(self):
        ms = MatrixSet.planned(self.schema, self.x_attr, self.edges)
        LevelArena([ms], self.n_records)  # int64 cubes when wide
        return ms


def assert_msets_equal(a, b):
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    np.testing.assert_array_equal(a.x_stats.vmin, b.x_stats.vmin)
    np.testing.assert_array_equal(a.x_stats.vmax, b.x_stats.vmax)
    assert a.matrices.keys() == b.matrices.keys()
    for j, m in a.matrices.items():
        assert m.counts.dtype == b.matrices[j].counts.dtype
        np.testing.assert_array_equal(m.counts, b.matrices[j].counts)
        np.testing.assert_array_equal(m.y_stats.vmin, b.matrices[j].y_stats.vmin)
        np.testing.assert_array_equal(m.y_stats.vmax, b.matrices[j].y_stats.vmax)
    assert a.categorical.keys() == b.categorical.keys()
    for j, h in a.categorical.items():
        np.testing.assert_array_equal(h.counts, b.categorical[j].counts)


def numpy_mset(mc, batches):
    with native_scan.force_numpy():
        ref = mc.mset()
        for X, y in batches:
            ref.update(X, y)
    return ref


def check_fused_mset(case):
    mc = MsetCase(case)
    fused = mc.mset()
    before = native_scan.kernel_counts()
    for X, y in mc.batches:
        fused.update(X, y)
    after = native_scan.kernel_counts()
    ref = numpy_mset(mc, mc.batches)
    if native_scan.available():
        # The fused entry filled every histogram: no silent numpy fallback.
        filled = sum(len(y) > 0 for __, y in mc.batches)
        assert after["matrix_accum"] - before["matrix_accum"] == filled * len(fused.matrices)
        assert after["cat_accum"] - before["cat_accum"] == filled * len(fused.categorical)
    assert_msets_equal(fused, ref)


class TestFusedUpdate:
    @given(mset_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, case):
        check_fused_mset(case)

    @pytest.mark.fuzz
    @given(mset_cases(max_n=2_000))
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_wide(self, case):
        check_fused_mset(case)

    @pytest.mark.parametrize(
        "bad, error", [("label", ValueError), ("code", IndexError)]
    )
    def test_bad_input_raises_like_numpy(self, bad, error):
        X, y = random_data(50)
        if bad == "label":
            y[7] = 2
        else:
            X[7, 2] = 5.0
        ms = MatrixSet.create(schema3(), 0, edges3())
        with pytest.raises(error):
            ms.update(X, y)
        with native_scan.force_numpy(), pytest.raises(error):
            MatrixSet.create(schema3(), 0, edges3()).update(X, y)
        if native_scan.available():
            # Validation precedes every write.
            assert_msets_equal(ms, MatrixSet.create(schema3(), 0, edges3()))


class TestPlanLifecycle:
    """The arena's one pointer plan never goes stale or crosses copies."""

    def batches(self):
        X, y = random_data(600, seed=3)
        return [(X[:200], y[:200]), (X[200:400], y[200:400]), (X[400:], y[400:])]

    def reference(self, batches):
        with native_scan.force_numpy():
            ref = MatrixSet.create(schema3(), 0, edges3())
            for X, y in batches:
                ref.update(X, y)
        return ref

    def test_update_after_pickle_round_trip(self):
        b = self.batches()
        # A planned set pickles as its grids and lays out where it lands.
        planned = MatrixSet.planned(schema3(), 0, edges3())
        copy = pickle.loads(pickle.dumps(planned))
        copy.update(*b[0])
        copy.update(*b[1])
        assert_msets_equal(copy, self.reference(b[:2]))
        assert planned.arena is None and planned.class_counts is None
        # A laid-out set refuses: its views would not survive the trip.
        ms = MatrixSet.create(schema3(), 0, edges3())
        ms.update(*b[0])
        with pytest.raises(TypeError):
            pickle.dumps(ms)

    def test_update_after_narrow_merge_keeps_plan(self):
        b = self.batches()
        a = MatrixSet.create(schema3(), 0, edges3())
        a.update(*b[0])
        plan = a.arena.plan
        other = MatrixSet.create(schema3(), 0, edges3())
        other.update(*b[1])
        a.merge_from(other)  # a row-range add: the plan stays valid
        assert a.arena.plan is plan
        before = native_scan.kernel_counts()["matrix_accum"]
        a.update(*b[2])
        if native_scan.available():
            assert (
                native_scan.kernel_counts()["matrix_accum"]
                == before + len(a.matrices)
            )
        assert_msets_equal(a, self.reference(b))
