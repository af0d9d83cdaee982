"""Tests for repro.data.discretize, including property-based tests."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.data.discretize import (
    ReservoirSampler,
    bin_index,
    edges_from_histogram,
    equal_depth_edges,
)

finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
value_arrays = hnp.arrays(
    np.float64, st.integers(min_value=1, max_value=300), elements=finite_floats
)


class TestEqualDepth:
    def test_roughly_equal_population(self, rng):
        values = rng.normal(size=10_000)
        edges = equal_depth_edges(values, 10)
        bins = bin_index(values, edges)
        counts = np.bincount(bins, minlength=len(edges) + 1)
        assert counts.min() > 700
        assert counts.max() < 1300

    def test_edges_are_data_values(self, rng):
        values = rng.uniform(0, 1, 500)
        edges = equal_depth_edges(values, 8)
        assert set(edges).issubset(set(values))

    def test_heavy_atom_collapses(self):
        values = np.concatenate([np.zeros(900), np.arange(1, 101, dtype=float)])
        edges = equal_depth_edges(values, 10)
        # 0 appears at most once as an edge despite covering 90% of the mass.
        assert np.count_nonzero(edges == 0.0) <= 1

    @given(value_arrays, st.integers(min_value=1, max_value=20))
    @settings(max_examples=60, deadline=None)
    def test_edges_strictly_increasing_and_below_max(self, values, q):
        edges = equal_depth_edges(values, q)
        if len(edges) > 1:
            assert np.all(np.diff(edges) > 0)
        if len(edges):
            assert edges.max() < values.max()


class TestBinIndex:
    def test_boundary_convention(self):
        # Interval i holds (edges[i-1], edges[i]]: boundary values bin left.
        edges = np.array([1.0, 2.0])
        values = np.array([0.5, 1.0, 1.5, 2.0, 2.5])
        np.testing.assert_array_equal(bin_index(values, edges), [0, 0, 1, 1, 2])

    @given(value_arrays)
    @settings(max_examples=50, deadline=None)
    def test_bins_within_range(self, values):
        edges = equal_depth_edges(values, 5)
        bins = bin_index(values, edges)
        assert bins.min() >= 0
        assert bins.max() <= len(edges)


class TestEdgesFromHistogram:
    def test_uniform_refinement(self):
        # Uniform counts over [0, 10] in 5 intervals -> evenly spread edges.
        edges = np.array([2.0, 4.0, 6.0, 8.0])
        counts = np.full(5, 100.0)
        new = edges_from_histogram(edges, counts, 10)
        assert len(new) >= 7
        assert np.all(np.diff(new) > 0)

    def test_concentrated_mass_gets_resolution(self):
        # All mass in one parent interval: the new edges subdivide it.
        edges = np.array([1.0, 2.0, 3.0])
        counts = np.array([0.0, 1000.0, 0.0, 0.0])
        new = edges_from_histogram(edges, counts, 8)
        inside = (new >= 1.0) & (new <= 2.0)
        assert inside.sum() >= len(new) - 2

    def test_empty_histogram(self):
        assert len(edges_from_histogram(np.array([1.0]), np.zeros(2), 4)) == 0

    def test_q_one(self):
        assert len(edges_from_histogram(np.array([1.0]), np.array([5.0, 5.0]), 1)) == 0

    def test_count_length_validated(self):
        with pytest.raises(ValueError, match="len\\(edges\\) \\+ 1"):
            edges_from_histogram(np.array([1.0]), np.array([1.0]), 4)


class TestReservoirSampler:
    def test_small_stream_kept_verbatim(self, rng):
        r = ReservoirSampler(100, rng)
        r.extend(np.arange(30.0))
        assert sorted(r.sample()) == sorted(np.arange(30.0))
        assert r.n_seen == 30

    def test_capacity_respected(self, rng):
        r = ReservoirSampler(50, rng)
        for __ in range(10):
            r.extend(np.arange(100.0))
        assert len(r.sample()) == 50
        assert r.n_seen == 1000

    def test_distribution_roughly_uniform(self, rng):
        # Sampling 1..10000 with capacity 1000: the mean should be near 5000.
        r = ReservoirSampler(1000, rng)
        r.extend(np.arange(10_000, dtype=float))
        assert abs(r.sample().mean() - 5000) < 400

    def test_edges_from_reservoir(self, rng):
        r = ReservoirSampler(500, rng)
        r.extend(rng.uniform(0, 1, 5000))
        edges = r.edges(4)
        assert len(edges) == 3
        assert np.all((edges > 0) & (edges < 1))

    def test_empty_reservoir_edges(self):
        r = ReservoirSampler(10, np.random.default_rng(0))
        assert len(r.edges(5)) == 0

    def test_bad_capacity(self):
        with pytest.raises(ValueError):
            ReservoirSampler(0, np.random.default_rng(0))


class TestHeavyDuplicateRegressions:
    """Minimized cases from the verify-harness audit of tie handling.

    Parent (fresh equal-depth) grids must never produce empty intervals
    and must isolate ULP-separated atoms; interpolated child grids are
    allowed to miss an atom that shares its parent interval with other
    values (the footnote-1 estimator slack), but must isolate an atom
    that fills its interval.
    """

    def test_ulp_separated_atoms_get_distinct_edges(self):
        # Two values one ULP-step apart, heavily duplicated: the parent
        # grid must keep them in separate intervals.
        values = np.array([0.500000001] * 15 + [0.500000002] * 27)
        edges = equal_depth_edges(values, 4)
        assert list(edges) == [0.500000001]
        bins = bin_index(values, edges)
        counts = np.bincount(bins, minlength=2)
        assert list(counts) == [15, 27]

    def test_no_empty_parent_intervals_under_ties(self):
        # 90/10 duplicate split at any q: every interval stays populated.
        values = np.array([1.0] * 90 + [2.0] * 10)
        for q in (1, 2, 4, 8, 16):
            edges = equal_depth_edges(values, q)
            counts = np.bincount(bin_index(values, edges), minlength=len(edges) + 1)
            assert (counts > 0).all(), (q, edges, counts)

    def test_value_equal_to_edge_goes_below(self):
        # The (lo, hi] convention: a value exactly on an edge belongs to
        # the closed-above interval, matching the `a <= C` split rule.
        edges = np.array([1.0, 2.0])
        assert list(bin_index(np.array([1.0, 2.0]), edges)) == [0, 1]
        assert list(bin_index(np.array([np.nextafter(1.0, 2.0)]), edges)) == [1]

    def test_every_edge_is_a_data_value(self, rng):
        pool = np.array([0.25, 0.25 + 1e-9, 0.5, 0.5 - 1e-9, -3.0])
        for __ in range(50):
            values = rng.choice(pool, size=int(rng.integers(1, 40)))
            edges = equal_depth_edges(values, int(rng.integers(1, 10)))
            assert np.all(np.isin(edges, values))
            if len(edges):
                assert edges.max() < values.max()

    def test_interpolated_child_isolates_atom_filling_its_interval(self):
        # Interval 1 is a pure atom (vmin == vmax): the CDF jump must put
        # a child edge exactly on the atom value.
        values = np.array([-3.0] * 6 + [0.5] * 6 + [2.0] * 6)
        edges = equal_depth_edges(values, 3)
        bins = bin_index(values, edges)
        counts = np.bincount(bins, minlength=len(edges) + 1).astype(float)
        vmin = np.full(len(edges) + 1, np.inf)
        vmax = np.full(len(edges) + 1, -np.inf)
        np.minimum.at(vmin, bins, values)
        np.maximum.at(vmax, bins, values)
        child = edges_from_histogram(edges, counts, 3, vmin, vmax)
        assert 0.5 in child

    def test_interpolated_child_may_miss_shared_atom(self):
        # Minimized from the audit: one record at -3 shares interval 0
        # with a 6-record atom at 0.500000001.  Uniform spreading puts
        # child edges in the empty value gap — a documented estimator
        # limitation (not a correctness bug: alive-interval buffering
        # resolves the exact cut), so pin the behaviour here.
        values = np.array([-3.000000002] + [0.500000001] * 6 + [0.500000002] * 6)
        edges = equal_depth_edges(values, 7)
        assert list(edges) == [0.500000001]
        bins = bin_index(values, edges)
        counts = np.bincount(bins, minlength=2).astype(float)
        assert list(counts) == [7.0, 6.0]
        vmin = np.full(2, np.inf)
        vmax = np.full(2, -np.inf)
        np.minimum.at(vmin, bins, values)
        np.maximum.at(vmax, bins, values)
        child = edges_from_histogram(edges, counts, 7, vmin, vmax)
        # Child edges are strictly increasing and inside the value range,
        # but none lands on the shared atom.
        assert np.all(np.diff(child) > 0)
        assert 0.500000001 not in child

    def test_all_identical_values_yield_no_edges(self):
        assert len(equal_depth_edges(np.full(100, 3.14), 8)) == 0
