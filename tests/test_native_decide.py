"""Tests for the native decide kernels: subset splits, re-quantiling and
the slope walks (`repro.core.native_scan`).

Each kernel is compared bit for bit with the numpy body it replaces
(``CategoryHistogram.best_subset_split``, and under ``force_numpy()``
``edges_from_histogram`` and ``gini_slope_walk``), on generated inputs that aim at the
corners of its contract: empty and single populated categories and
ties for the subset splits; atoms, zero-count intervals and repeated
cdf points for the re-quantiling; flipped, decimated and all-zero
grids for the walks.  The ``*_wide`` variants run the same checks on
larger inputs under the ``fuzz`` marker.  A build-level check makes
sure the level builders take the native path for every one of them.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_build, native_scan
from repro.core.histogram import (
    CategoryHistogram,
    ClassHistogram,
    best_subset_splits,
)
from repro.core.linear import (
    _MAX_STEPS,
    _decimated,
    _factors,
    best_linear_candidate,
    gini_slope_walk,
)
from repro.core.matrix import HistogramMatrix, MatrixSet
from repro.data.discretize import edges_from_histogram, edges_from_histograms

pytestmark = [
    pytest.mark.skipif(
        native_build.compiler() is None, reason="no C compiler on this machine"
    ),
    pytest.mark.skipif(
        bool(os.environ.get("CMP_NO_NATIVE")),
        reason="native kernels disabled via CMP_NO_NATIVE",
    ),
]


# ---------------------------------------------------------------------------
# Subset splits
# ---------------------------------------------------------------------------


@st.composite
def category_tables(draw, c, max_categories=30, max_count=12):
    """A ``(k, c)`` count table with empty categories and tied fractions."""
    k = draw(st.integers(1, max_categories))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_count + 1, size=(k, c)).astype(np.float64)
    shape = draw(st.sampled_from(["plain", "sparse", "one", "ties", "empty"]))
    if shape == "sparse":
        counts[rng.random(k) < 0.5] = 0.0
    elif shape == "one":
        counts[:] = 0.0
        counts[rng.integers(0, k)] = rng.integers(1, max_count + 1, size=c)
    elif shape == "ties":
        # Few distinct rows and their multiples: equal class fractions.
        base = rng.integers(0, 3, size=(2, c)).astype(np.float64)
        counts = base[rng.integers(0, 2, size=k)] * rng.integers(1, 3, size=(k, 1))
    elif shape == "empty":
        counts[:] = 0.0
    return np.ascontiguousarray(counts)


def table_batches(max_size=6, **kw):
    """A level's tables: one class count, 2..7 classes."""
    return st.integers(2, 7).flatmap(
        lambda c: st.lists(category_tables(c, **kw), min_size=1, max_size=max_size)
    )


def numpy_subset_split(counts):
    """The numpy reference: ``CategoryHistogram.best_subset_split``."""
    hist = CategoryHistogram(*counts.shape)
    hist.counts = counts
    try:
        return hist.best_subset_split()
    except ValueError:
        return None


def check_subset_splits(tables):
    got = native_scan.subset_splits(tables)
    assert got is not None
    for counts, (mask, g) in zip(tables, got):
        ref = numpy_subset_split(counts)
        if ref is None:
            assert mask is None and g == np.inf
        else:
            assert mask is not None
            np.testing.assert_array_equal(mask, ref[0])
            assert g == ref[1]


class TestSubsetSplits:
    @given(table_batches())
    @settings(max_examples=150, deadline=None)
    def test_matches_numpy(self, tables):
        check_subset_splits(tables)

    @pytest.mark.fuzz
    @given(table_batches(max_size=20, max_categories=200, max_count=5000))
    @settings(max_examples=1000, deadline=None)
    def test_matches_numpy_wide(self, tables):
        check_subset_splits(tables)

    @given(st.integers(2, 7).flatmap(category_tables))
    @settings(max_examples=60, deadline=None)
    def test_batch_wrapper_identical(self, counts):
        hist = CategoryHistogram(*counts.shape)
        hist.counts = counts
        (native,) = best_subset_splits([(3, hist)])
        with native_scan.force_numpy():
            (numpy,) = best_subset_splits([(3, hist)])
        assert native.attr == numpy.attr == 3
        assert native.gini == numpy.gini
        if numpy.mask is None:
            assert native.mask is None
        else:
            np.testing.assert_array_equal(native.mask, numpy.mask)

    def test_counts_a_boundary_sweep_per_table(self):
        tables = [np.ones((3, 2)), np.ones((4, 2))]
        before = native_scan.kernel_counts()["boundary_ginis"]
        assert native_scan.subset_splits(tables) is not None
        assert native_scan.kernel_counts()["boundary_ginis"] == before + 2

    def test_declines_at_eight_classes(self):
        assert native_scan.subset_splits([np.ones((3, 8))]) is None
        assert native_scan.subset_splits([np.ones((3, 7))]) is not None

    def test_declines_outside_exactness_envelope(self):
        assert native_scan.subset_splits([np.full((3, 2), 0.5)]) is None
        assert native_scan.subset_splits([np.full((3, 2), -1.0)]) is None
        nan = np.ones((3, 2))
        nan[1, 1] = np.nan
        assert native_scan.subset_splits([nan]) is None
        assert native_scan.subset_splits([np.ones((4, 4))[:, ::2]]) is None


# ---------------------------------------------------------------------------
# Re-quantiling
# ---------------------------------------------------------------------------


@st.composite
def parent_grids(draw, c, max_intervals=40, max_q=200):
    """A class histogram with atoms, empty intervals and repeated points."""
    qp = draw(st.integers(1, max_intervals))
    q = draw(st.integers(1, max_q))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, 6, size=(qp, c)).astype(np.float64)
    counts[rng.random(qp) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
    decimals = draw(st.integers(0, 3))
    # Rounded values repeat, so extrema and cdf points coincide often.
    values = np.sort(rng.normal(scale=3.0, size=2 * qp).round(decimals)) + 0.0
    vmin, vmax = values[0::2].copy(), values[1::2].copy()
    atoms = rng.random(qp) < draw(st.sampled_from([0.0, 0.4, 1.0]))
    vmax[atoms] = vmin[atoms]
    hist = ClassHistogram(np.arange(qp - 1, dtype=np.float64), c)
    hist.counts, hist.vmin, hist.vmax = counts, vmin, vmax
    return hist, q


def grid_batches(max_size=6, **kw):
    """One node's child grids: one class count, 2..7 classes."""
    return st.integers(2, 7).flatmap(
        lambda c: st.lists(parent_grids(c, **kw), min_size=1, max_size=max_size)
    )


def check_requantile(pairs):
    got = native_scan.requantile([(h.counts, h.vmin, h.vmax, q) for h, q in pairs])
    assert got is not None
    for (h, q), edges in zip(pairs, got):
        with native_scan.force_numpy():
            ref = edges_from_histogram(h.edges, h.counts.sum(axis=1), q, h.vmin, h.vmax)
        assert edges is not None
        assert edges.dtype == ref.dtype and edges.shape == ref.shape
        np.testing.assert_array_equal(edges, ref)


class TestRequantile:
    @given(grid_batches())
    @settings(max_examples=200, deadline=None)
    def test_matches_numpy(self, pairs):
        check_requantile(pairs)

    @pytest.mark.fuzz
    @given(grid_batches(max_size=20, max_intervals=300, max_q=400))
    @settings(max_examples=1000, deadline=None)
    def test_matches_numpy_wide(self, pairs):
        check_requantile(pairs)

    @given(grid_batches(max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_batch_wrapper_identical(self, pairs):
        got = edges_from_histograms(pairs)
        with native_scan.force_numpy():
            ref = edges_from_histograms(pairs)
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_declined_rows_fall_back_to_numpy(self):
        good = ClassHistogram(np.array([1.0, 2.0]), 2)
        good.counts = np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 1.0]])
        good.vmin, good.vmax = np.array([0.0, 1.5, 2.5]), np.array([1.0, 1.5, 4.0])
        fractional = ClassHistogram(good.edges, 2)
        fractional.counts = good.counts * 0.5
        fractional.vmin, fractional.vmax = good.vmin, good.vmax
        rows = [(h.counts, h.vmin, h.vmax, 5) for h in (good, fractional)]
        native = native_scan.requantile(rows)
        assert native[0] is not None and native[1] is None
        got = edges_from_histograms([(good, 5), (fractional, 5)])
        with native_scan.force_numpy():
            ref = edges_from_histograms([(good, 5), (fractional, 5)])
        for a, b in zip(got, ref):
            np.testing.assert_array_equal(a, b)

    def test_declines_at_eight_classes(self):
        rows = [(np.ones((3, 8)), np.zeros(3), np.ones(3), 4)]
        assert native_scan.requantile(rows) is None


# ---------------------------------------------------------------------------
# Slope walks
# ---------------------------------------------------------------------------


@st.composite
def walk_matrices(draw, c, qx=None, max_axis=48, max_count=30):
    """A matrix of integer counts, 2..max_axis cells per axis."""
    qx = qx if qx is not None else draw(st.integers(2, max_axis))
    qy = draw(st.integers(2, max_axis))
    seed = draw(st.integers(0, 2**32 - 1))
    dtype = draw(st.sampled_from([np.int32, np.int64, np.float64]))
    rng = np.random.default_rng(seed)
    counts = rng.integers(0, max_count + 1, size=(qx, qy, c))
    shape = draw(st.sampled_from(["plain", "zero", "sparse", "diagonal"]))
    if shape == "zero":
        counts[:] = 0
    elif shape == "sparse":
        counts[rng.random((qx, qy)) < 0.8] = 0
    elif shape == "diagonal":
        i, j = np.meshgrid(np.arange(qx), np.arange(qy), indexing="ij")
        counts[:, :, 0] *= i * qy + j * qx < qx * qy
        counts[:, :, 1] *= i * qy + j * qx >= qx * qy
    m = HistogramMatrix(0, 1, np.arange(qx - 1.0), np.arange(qy - 1.0), c)
    m.counts = np.ascontiguousarray(counts.astype(dtype))
    return m


@st.composite
def matrix_sets(draw, max_matrices=4, **kw):
    """A matrix set: matrices sharing one X axis and one class count."""
    c = draw(st.integers(2, 5))
    qx = draw(st.integers(2, kw.get("max_axis", 48)))
    matrices = draw(
        st.lists(walk_matrices(c, qx=qx, **kw), min_size=1, max_size=max_matrices)
    )
    mset = MatrixSet(x_attr=0, x_edges=matrices[0].x_edges, n_classes=c)
    for j, m in enumerate(matrices, start=1):
        m.y_attr = j
        mset.matrices[j] = m
    return mset


def check_walks(matrices):
    got = native_scan.slope_walks(
        [(m.counts, *_factors(m)) for m in matrices], _MAX_STEPS
    )
    assert got is not None
    with native_scan.force_numpy():
        for m, walks in zip(matrices, got):
            counts = _decimated(m).counts
            for flipped, (g, x, y) in enumerate(walks):
                ref_g, ref_line = gini_slope_walk(
                    counts[:, ::-1, :] if flipped else counts
                )
                assert (g, x, y) == (ref_g, ref_line.x, ref_line.y)


class TestSlopeWalks:
    @given(matrix_sets())
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, mset):
        check_walks(list(mset.matrices.values()))

    @pytest.mark.fuzz
    @given(matrix_sets(max_matrices=6, max_axis=120, max_count=2000))
    @settings(max_examples=300, deadline=None)
    def test_matches_numpy_wide(self, mset):
        check_walks(list(mset.matrices.values()))

    @given(st.integers(2, 5).flatmap(lambda c: walk_matrices(c, max_axis=20)))
    @settings(max_examples=40, deadline=None)
    def test_single_walk_matches_numpy(self, m):
        check_walks([m])

    @given(matrix_sets(max_matrices=3, max_axis=30))
    @settings(max_examples=40, deadline=None)
    def test_best_linear_candidate_identical(self, mset):
        got = best_linear_candidate(mset)
        with native_scan.force_numpy():
            ref = best_linear_candidate(mset)
        assert got == ref

    def test_counts_two_walks_per_matrix(self):
        m = HistogramMatrix(0, 1, np.arange(3.0), np.arange(4.0), 2)
        m.counts[:] = 1
        before = native_scan.kernel_counts()["slope_walk"]
        assert native_scan.slope_walks([(m.counts, 1, 1)], 64) is not None
        assert native_scan.kernel_counts()["slope_walk"] == before + 2

    def test_declines_outside_exactness_envelope(self):
        assert native_scan.slope_walks([(np.full((3, 3, 2), 0.5), 1, 1)], 16) is None
        assert native_scan.slope_walks([(np.full((3, 3, 2), -1), 1, 1)], 16) is None
        huge = np.zeros((3, 3, 2), dtype=np.int64)
        huge[0, 0, 0] = 2**26
        assert native_scan.slope_walks([(huge, 1, 1)], 16) is None
        small = np.ones((3, 3, 2), dtype=np.int16)
        assert native_scan.slope_walks([(small, 1, 1)], 16) is None


# ---------------------------------------------------------------------------
# Builds take the native path
# ---------------------------------------------------------------------------


class TestNoSilentFallback:
    """Every subset split, re-quantile and walk of a build runs natively."""

    @pytest.mark.parametrize("builder", ["CMP", "CMP-B", "CMP-S", "CLOUDS"])
    def test_builds_take_the_native_decide_path(self, builder, monkeypatch):
        import repro.core.linear as linear
        import repro.data.discretize as discretize
        from repro.baselines.clouds import CloudsBuilder
        from repro.core.cmp_b import CMPBBuilder
        from repro.core.cmp_full import CMPBuilder
        from repro.core.cmp_s import CMPSBuilder
        from repro.data.synthetic import generate_agrawal
        from repro.eval.experiments import default_config

        fallbacks = []

        def refuse(name):
            def fallback(*args, **kwargs):
                fallbacks.append(name)
                raise AssertionError(f"{name} took its numpy path")

            return fallback

        monkeypatch.setattr(
            CategoryHistogram, "best_subset_split", refuse("subset split")
        )
        monkeypatch.setattr(
            discretize, "edges_from_histogram", refuse("re-quantile")
        )
        monkeypatch.setattr(linear, "gini_slope_walk", refuse("slope walk"))
        answered = {"subset_splits": 0, "requantile": 0, "slope_walks": 0}
        for name in answered:
            real = getattr(native_scan, name)

            def spy(*args, _real=real, _name=name):
                out = _real(*args)
                assert out is not None, f"{_name} declined"
                answered[_name] += 1
                return out

            monkeypatch.setattr(native_scan, name, spy)
        cfg = default_config()
        make = {
            "CMP": CMPBuilder,
            "CMP-B": CMPBBuilder,
            "CMP-S": CMPSBuilder,
            "CLOUDS": CloudsBuilder,
        }[builder]
        make(cfg).build(generate_agrawal("F7", 20_000, seed=1))
        assert not fallbacks
        assert answered["subset_splits"] > 0
        assert answered["requantile"] > 0
        if builder == "CMP":
            assert answered["slope_walks"] > 0
