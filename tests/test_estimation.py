"""Tests for the gini gradient and hill-climbing estimator (Eq. 4-5)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.estimation import (
    gini_gradient,
    interval_estimate,
    interval_estimates,
)
from repro.core.gini import gini_partition


@st.composite
def stacked_histograms(draw, max_q: int = 12, max_segments: int = 6):
    """``(counts, atomic)`` pairs sharing one class count ``c`` in 2..12.

    Includes single-interval, empty-row and all-empty histograms.
    """
    c = draw(st.integers(2, 12))
    out = []
    for __ in range(draw(st.integers(1, max_segments))):
        q = draw(st.integers(1, max_q))
        counts = draw(
            hnp.arrays(np.float64, (q, c), elements=st.integers(0, 200).map(float))
        )
        if draw(st.booleans()):
            counts[draw(hnp.arrays(bool, q))] = 0.0
        out.append((counts, draw(hnp.arrays(bool, q))))
    return out


def assert_segmented_matches(segments):
    counts = np.concatenate([h for h, __ in segments])
    atomic = np.concatenate([a for __, a in segments])
    starts = np.cumsum([0] + [len(h) for h, __ in segments[:-1]])
    with np.errstate(divide="raise", invalid="raise"):
        stacked = interval_estimates(counts, atomic=atomic, starts=starts)
        singles = [interval_estimates(h, atomic=a) for h, a in segments]
    assert np.array_equal(stacked, np.concatenate(singles))
    for (hist, atom), est in zip(segments, singles):
        totals = hist.sum(axis=0)
        cum_left = np.zeros(hist.shape[1])
        for i in range(len(hist)):
            scalar = interval_estimate(cum_left, hist[i], totals, atomic=bool(atom[i]))
            assert est[i] <= scalar + 1e-12, f"interval {i}"
            cum_left += hist[i]


hist_arrays = hnp.arrays(
    np.float64,
    st.tuples(st.integers(2, 12), st.integers(2, 4)),
    elements=st.integers(min_value=0, max_value=200).map(float),
)


class TestGradient:
    def test_matches_finite_differences(self):
        # Equation 4 against a numeric derivative of gini^D.
        totals = np.array([400.0, 300.0, 300.0])
        x = np.array([120.0, 80.0, 40.0])

        def f(xv):
            return gini_partition(xv, totals - xv)

        grad = gini_gradient(x, totals)
        eps = 1e-5
        for i in range(3):
            xp = x.copy()
            xp[i] += eps
            xm = x.copy()
            xm[i] -= eps
            numeric = (f(xp) - f(xm)) / (2 * eps)
            assert grad[i] == pytest.approx(numeric, rel=1e-4)

    def test_degenerate_points_are_zero(self):
        totals = np.array([10.0, 10.0])
        assert np.all(gini_gradient(np.zeros(2), totals) == 0)
        assert np.all(gini_gradient(totals, totals) == 0)


class TestIntervalEstimate:
    def test_at_most_boundary_values(self):
        # Equation 5 takes the min with both boundaries, so the estimate can
        # never exceed either boundary's gini.
        cum_left = np.array([50.0, 10.0])
        interval = np.array([20.0, 30.0])
        totals = np.array([100.0, 100.0])
        est = interval_estimate(cum_left, interval, totals)
        g_left = gini_partition(cum_left, totals - cum_left)
        cum_right = cum_left + interval
        g_right = gini_partition(cum_right, totals - cum_right)
        assert est <= min(g_left, g_right) + 1e-12

    def test_detects_interior_optimum(self):
        # All of class 0 in the interval can move left first: a perfect
        # interior split exists and the climb must see a much lower gini.
        cum_left = np.array([50.0, 0.0])
        interval = np.array([50.0, 50.0])
        totals = np.array([100.0, 100.0])
        est = interval_estimate(cum_left, interval, totals)
        assert est == pytest.approx(0.0, abs=1e-9)

    def test_empty_interval(self):
        cum_left = np.array([30.0, 20.0])
        totals = np.array([60.0, 60.0])
        est = interval_estimate(cum_left, np.zeros(2), totals)
        g_left = gini_partition(cum_left, totals - cum_left)
        assert est == pytest.approx(g_left)

    def test_atomic_skips_climb(self):
        cum_left = np.array([50.0, 0.0])
        interval = np.array([50.0, 50.0])
        totals = np.array([100.0, 100.0])
        est = interval_estimate(cum_left, interval, totals, atomic=True)
        # Without climbing, only the boundary values remain.
        cum_right = cum_left + interval
        expected = min(
            gini_partition(cum_left, totals - cum_left),
            gini_partition(cum_right, totals - cum_right),
        )
        assert est == pytest.approx(expected)


class TestVectorizedParity:
    @given(hist_arrays)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_reference(self, hist):
        if hist.sum() == 0:
            return
        vec = interval_estimates(hist)
        totals = hist.sum(axis=0)
        cum_left = np.zeros(hist.shape[1])
        for i in range(hist.shape[0]):
            scalar = interval_estimate(cum_left, hist[i], totals)
            assert vec[i] == pytest.approx(scalar, abs=1e-9), f"interval {i}"
            cum_left += hist[i]

    @given(hist_arrays)
    @settings(max_examples=60, deadline=None)
    def test_estimates_bounded(self, hist):
        if hist.sum() == 0:
            return
        est = interval_estimates(hist)
        c = hist.shape[1]
        assert np.all(est >= -1e-12)
        assert np.all(est <= 1.0 - 1.0 / c + 1e-9)

    def test_atomic_mask(self):
        hist = np.array([[10.0, 0.0], [30.0, 30.0], [0.0, 10.0]])
        atomic = np.array([False, True, False])
        est_plain = interval_estimates(hist)
        est_atomic = interval_estimates(hist, atomic=atomic)
        # The middle interval cannot climb when atomic.
        assert est_atomic[1] >= est_plain[1]
        # Other intervals unchanged.
        assert est_atomic[0] == pytest.approx(est_plain[0])
        assert est_atomic[2] == pytest.approx(est_plain[2])

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError, match="intervals, classes"):
            interval_estimates(np.zeros(5))


class TestSegmentedEstimates:
    """Stacked histograms estimate exactly as they do one at a time."""

    @given(stacked_histograms())
    @settings(max_examples=80, deadline=None)
    def test_segments_match_single_calls(self, segments):
        assert_segmented_matches(segments)

    @pytest.mark.fuzz
    @given(stacked_histograms(max_q=200, max_segments=40))
    @settings(max_examples=200, deadline=None)
    def test_segments_match_single_calls_wide(self, segments):
        assert_segmented_matches(segments)

    def test_all_empty_segment_is_silent(self):
        counts = np.array([[0.0, 0.0], [0.0, 0.0], [3.0, 1.0], [0.0, 2.0]])
        with np.errstate(all="raise"):
            est = interval_estimates(counts, starts=np.array([0, 2]))
        assert np.array_equal(est[:2], [0.0, 0.0])
        assert np.array_equal(est[2:], interval_estimates(counts[2:]))
