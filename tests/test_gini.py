"""Tests for the gini machinery, including property-based invariants."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.gini import (
    best_cut,
    boundary_ginis,
    exact_best_threshold,
    gini,
    gini_gain,
    gini_partition,
    gini_partition_many,
)

count_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=6),
    elements=st.integers(min_value=0, max_value=1000).map(float),
)


class TestGini:
    def test_pure_set_is_zero(self):
        assert gini(np.array([10.0, 0.0])) == 0.0

    def test_uniform_two_class(self):
        assert gini(np.array([5.0, 5.0])) == pytest.approx(0.5)

    def test_empty_set_is_zero(self):
        assert gini(np.zeros(3)) == 0.0

    def test_batched(self):
        out = gini(np.array([[10.0, 0.0], [5.0, 5.0]]))
        np.testing.assert_allclose(out, [0.0, 0.5])

    @given(count_vectors)
    @settings(max_examples=100, deadline=None)
    def test_bounds(self, counts):
        g = gini(counts)
        c = len(counts)
        assert 0.0 <= g <= 1.0 - 1.0 / c + 1e-12


class TestGiniPartition:
    def test_equation2(self):
        left = np.array([30.0, 10.0])
        right = np.array([5.0, 55.0])
        expected = (40 / 100) * gini(left) + (60 / 100) * gini(right)
        assert gini_partition(left, right) == pytest.approx(expected)

    def test_empty_side_collapses_to_parent(self):
        counts = np.array([30.0, 10.0])
        assert gini_partition(counts, np.zeros(2)) == pytest.approx(gini(counts))

    @given(count_vectors, st.data())
    @settings(max_examples=100, deadline=None)
    def test_partition_never_exceeds_parent(self, total, data):
        # gini is concave: any binary partition has weighted gini <= parent's.
        left = np.array(
            [data.draw(st.integers(0, int(t))) for t in total], dtype=np.float64
        )
        right = total - left
        assert gini_partition(left, right) <= gini(total) + 1e-9

    def test_partition_many_matches_binary(self):
        a = np.array([3.0, 7.0])
        b = np.array([8.0, 2.0])
        assert gini_partition_many([a, b]) == pytest.approx(gini_partition(a, b))

    def test_partition_many_empty(self):
        assert gini_partition_many(np.zeros((3, 2))) == 0.0


class TestBoundaryGinis:
    def test_matches_scalar(self, rng):
        hist = rng.integers(0, 50, size=(8, 3)).astype(float)
        cum = np.cumsum(hist, axis=0)[:-1]
        totals = hist.sum(axis=0)
        vec = boundary_ginis(cum, totals)
        for k in range(len(cum)):
            expected = gini_partition(cum[k], totals - cum[k])
            assert vec[k] == pytest.approx(expected)
        # All-zero counts: every boundary is degenerate, gini 0.
        np.testing.assert_array_equal(boundary_ginis(np.zeros((3, 2)), np.zeros(2)), np.zeros(3))

    def test_best_boundary(self):
        # Perfectly separable: boundary 1 splits classes exactly; best_cut
        # picks it, and of tied candidates the first.
        cum = np.array([[5.0, 0.0], [10.0, 0.0], [10.0, 5.0], [10.0, 0.0]])
        totals = np.array([10.0, 10.0])
        k, g = best_cut(cum, totals)
        assert k == 1
        assert g == pytest.approx(0.0)
        assert g == boundary_ginis(cum, totals)[k]

    def test_validation(self):
        with pytest.raises(ValueError):
            boundary_ginis(np.zeros((3,)), np.zeros(2))
        # No candidate, or none with both sides populated: no cut.
        assert best_cut(np.zeros((0, 2)), np.array([3.0, 1.0])) is None
        assert best_cut(np.array([[0.0, 0.0], [3.0, 1.0]]), np.array([3.0, 1.0])) is None


class TestExactBestThreshold:
    def test_perfect_split(self):
        values = np.array([1.0, 2.0, 3.0, 10.0, 11.0, 12.0])
        labels = np.array([0, 0, 0, 1, 1, 1])
        thr, g = exact_best_threshold(values, labels, 2)
        assert thr == 3.0
        assert g == pytest.approx(0.0)

    def test_threshold_is_left_maximum(self, rng):
        # The split is value <= threshold and the threshold is a data value.
        values = rng.normal(size=200)
        labels = (values > 0.3).astype(np.int64)
        thr, g = exact_best_threshold(values, labels, 2)
        assert thr in values
        assert g == pytest.approx(0.0)
        assert thr == values[values <= 0.3].max()

    def test_sorted_variant_matches(self, rng):
        # Presorted input gives the split of the same records in any order.
        values = np.round(rng.normal(size=300), 1)  # ties included
        labels = rng.integers(0, 3, 300)
        order = np.argsort(values, kind="stable")
        a = exact_best_threshold(values, labels, 3)
        b = exact_best_threshold(values[order], labels[order], 3)
        assert a == b

    def test_constant_column_raises(self):
        with pytest.raises(ValueError, match="distinct"):
            exact_best_threshold(np.ones(10), np.arange(10) % 2, 2)

    def test_misaligned_raises(self):
        with pytest.raises(ValueError, match="align"):
            exact_best_threshold(np.ones(10), np.ones(9, dtype=int), 2)

    @given(
        st.lists(
            st.tuples(st.integers(0, 20), st.integers(0, 1)),
            min_size=4,
            max_size=60,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_brute_force(self, pairs):
        values = np.array([float(v) for v, _ in pairs])
        labels = np.array([c for _, c in pairs], dtype=np.int64)
        if len(np.unique(values)) < 2:
            return
        thr, g = exact_best_threshold(values, labels, 2)
        # Brute force over every distinct value as a threshold.
        best = np.inf
        for cand in np.unique(values)[:-1]:
            left = np.bincount(labels[values <= cand], minlength=2)
            right = np.bincount(labels[values > cand], minlength=2)
            best = min(best, gini_partition(left, right))
        assert g == pytest.approx(best)


class TestGiniGain:
    def test_gain(self):
        parent = np.array([10.0, 10.0])
        assert gini_gain(parent, 0.2) == pytest.approx(0.3)
