"""Tests for class histograms (continuous and categorical)."""

import contextlib
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_scan
from repro.core.builder import PartState
from repro.core.gini import gini_partition
from repro.core.histogram import CategoryHistogram, ClassHistogram


def part_of(hist):
    """A one-histogram part on attribute 0 (merges are part merges)."""
    return PartState(0, 2, {0: hist})


class TestClassHistogram:
    def make(self):
        hist = ClassHistogram(np.array([1.0, 2.0]), n_classes=2)
        hist.update(np.array([0.5, 1.0, 1.5, 2.5, 2.5]), np.array([0, 0, 1, 1, 0]))
        return hist

    def test_counts(self):
        hist = self.make()
        np.testing.assert_array_equal(
            hist.counts, [[2.0, 0.0], [0.0, 1.0], [1.0, 1.0]]
        )
        assert hist.n_records == 5
        np.testing.assert_array_equal(hist.totals(), [3.0, 2.0])

    def test_cumulative_and_cum_below(self):
        hist = self.make()
        cum = hist.cumulative()
        np.testing.assert_array_equal(cum[-1], hist.totals())
        np.testing.assert_array_equal(hist.cum_below(0), [0.0, 0.0])
        np.testing.assert_array_equal(hist.cum_below(2), cum[1])

    def test_boundary_ginis_match_direct(self):
        hist = self.make()
        bg = hist.boundary_ginis()
        cum = hist.cumulative()
        for k in range(2):
            expected = gini_partition(cum[k], hist.totals() - cum[k])
            assert bg[k] == pytest.approx(expected)

    def test_single_interval_no_boundaries(self):
        hist = ClassHistogram(np.empty(0), 2)
        hist.update(np.array([1.0, 2.0]), np.array([0, 1]))
        assert len(hist.boundary_ginis()) == 0

    def test_atomic_detection(self):
        hist = ClassHistogram(np.array([1.0]), 2)
        hist.update(np.array([0.5, 0.5, 0.5, 2.0, 3.0]), np.array([0, 1, 0, 1, 1]))
        atomic = hist.atomic_intervals()
        assert atomic[0]  # only value 0.5 in the first interval
        assert not atomic[1]  # values 2 and 3

    def test_empty_intervals_not_atomic(self):
        hist = ClassHistogram(np.array([1.0]), 2)
        hist.update(np.array([2.0, 3.0]), np.array([0, 1]))
        atomic = hist.atomic_intervals()
        assert not atomic[0]

    def test_merge_preserves_extrema(self):
        # Histograms merge as their parts' arena rows: counts add, the
        # extrema fold by fmin / fmax.
        a = part_of(ClassHistogram(np.array([1.0]), 2))
        b = part_of(ClassHistogram(np.array([1.0]), 2))
        a.update(np.array([[0.5]]), np.array([0]))
        b.update(np.array([[0.2]]), np.array([1]))
        a.merge_from(b)
        (hist,) = a.hists.values()
        assert hist.vmin[0] == 0.2
        assert hist.vmax[0] == 0.5
        assert hist.n_records == 2

    def test_merge_requires_same_edges(self):
        a = part_of(ClassHistogram(np.array([1.0]), 2))
        b = part_of(ClassHistogram(np.array([2.0]), 2))
        with pytest.raises(ValueError, match="share edges"):
            a.merge_from(b)

    def test_update_empty_batch(self):
        hist = ClassHistogram(np.array([1.0]), 2)
        hist.update(np.empty(0), np.empty(0, dtype=int))
        assert hist.n_records == 0

    @pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
    def test_nan_is_ignored_by_extrema(self, numpy_only):
        # NaN sorts above every number, so it is counted in the last
        # interval; the interval's extrema stay those of its real values.
        hist = ClassHistogram(np.array([0.0]), 2)
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            hist.update(np.array([np.nan, 1.0, -1.0]), np.array([0, 1, 0]))
        np.testing.assert_array_equal(hist.counts, [[1.0, 0.0], [1.0, 1.0]])
        np.testing.assert_array_equal(hist.vmin, [-1.0, 1.0])
        np.testing.assert_array_equal(hist.vmax, [-1.0, 1.0])

    @pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
    def test_nan_only_interval_keeps_infinities(self, numpy_only):
        hist = ClassHistogram(np.array([0.0]), 2)
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            hist.update(np.array([np.nan, -1.0]), np.array([0, 1]))
        np.testing.assert_array_equal(hist.vmin, [-1.0, np.inf])
        np.testing.assert_array_equal(hist.vmax, [-1.0, -np.inf])
        assert not hist.atomic_intervals()[1]


class TestCategoryHistogram:
    def test_counts(self):
        hist = CategoryHistogram(3, 2)
        hist.update(np.array([0, 1, 1, 2]), np.array([0, 1, 1, 0]))
        np.testing.assert_array_equal(hist.counts, [[1, 0], [0, 2], [1, 0]])

    def test_two_class_subset_split_optimal(self, rng):
        # For two classes the split must match exhaustive subset search.
        k = 5
        codes = rng.integers(0, k, 400)
        labels = rng.integers(0, 2, 400)
        hist = CategoryHistogram(k, 2)
        hist.update(codes, labels)
        __, got = hist.best_subset_split()

        best = np.inf
        for r in range(1, k):
            for subset in itertools.combinations(range(k), r):
                mask = np.isin(codes, subset)
                left = np.bincount(labels[mask], minlength=2)
                right = np.bincount(labels[~mask], minlength=2)
                if left.sum() and right.sum():
                    best = min(best, gini_partition(left, right))
        assert got == pytest.approx(best)

    def test_split_mask_excludes_empty_categories(self):
        hist = CategoryHistogram(4, 2)
        hist.update(np.array([0, 0, 1, 1]), np.array([0, 0, 1, 1]))
        mask, g = hist.best_subset_split()
        assert not mask[2] and not mask[3]
        assert g == pytest.approx(0.0)

    def test_single_category_raises(self):
        hist = CategoryHistogram(3, 2)
        hist.update(np.array([1, 1, 1]), np.array([0, 1, 0]))
        with pytest.raises(ValueError, match="fewer than two"):
            hist.best_subset_split()

    def test_merge(self):
        a = part_of(CategoryHistogram(2, 2))
        b = part_of(CategoryHistogram(2, 2))
        a.update(np.array([[0.0]]), np.array([0]))
        b.update(np.array([[1.0]]), np.array([1]))
        a.merge_from(b)
        assert a.hists[0].counts.sum() == 2

    @given(
        st.lists(
            st.tuples(st.integers(0, 4), st.integers(0, 2)),
            min_size=6,
            max_size=80,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_multiclass_split_is_valid(self, pairs):
        codes = np.array([c for c, _ in pairs])
        labels = np.array([l for _, l in pairs])
        hist = CategoryHistogram(5, 3)
        hist.update(codes, labels)
        populated = np.unique(codes)
        if len(populated) < 2:
            return
        mask, g = hist.best_subset_split()
        left = np.isin(codes, np.nonzero(mask)[0])
        # Both sides populated, and the gini matches a direct evaluation.
        assert left.any() and (~left).any()
        lcounts = np.bincount(labels[left], minlength=3)
        rcounts = np.bincount(labels[~left], minlength=3)
        assert g == pytest.approx(gini_partition(lcounts, rcounts))


def fill(kind, path, values, labels):
    """Fill a fresh two-class histogram — continuous with one edge at 0,
    or categorical with four categories — standalone or as a one-part
    part, and return it."""
    hist = ClassHistogram(np.array([0.0]), 2) if kind == "cont" else CategoryHistogram(4, 2)
    if path == "standalone":
        hist.update(np.asarray(values), np.asarray(labels))
        return hist
    part = part_of(hist)
    part.update(np.asarray(values, dtype=np.float64)[:, None], np.asarray(labels))
    return part.hists[0]


@pytest.mark.parametrize("numpy_only", [False, True], ids=["native", "numpy"])
@pytest.mark.parametrize("path", ["standalone", "part"])
class TestIndexRange:
    """Every fill path refuses a label outside ``[0, c)`` with
    ``ValueError``; category codes index like numpy."""

    @pytest.mark.parametrize("kind", ["cont", "cat"])
    @pytest.mark.parametrize("bad", [-1, -3, 2, 9])
    def test_bad_label_raises_value_error(self, kind, bad, path, numpy_only):
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            with pytest.raises(ValueError, match="class label"):
                fill(kind, path, [1.0, -1.0], [0, bad])

    def test_negative_codes_wrap(self, path, numpy_only):
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            hist = fill("cat", path, [-1.0, 3.0, -4.0, 0.0, 2.9, -0.5], [0, 1, 1, 0, 0, 1])
        np.testing.assert_array_equal(hist.counts, [[1, 2], [0, 0], [1, 0], [1, 1]])

    @pytest.mark.parametrize("bad", [4.0, -5.0, np.nan, np.inf, -np.inf, 1e19])
    def test_bad_code_raises_index_error(self, bad, path, numpy_only):
        with native_scan.force_numpy() if numpy_only else contextlib.nullcontext():
            with pytest.raises(IndexError):
                fill("cat", path, [0.0, bad], [0, 1])
