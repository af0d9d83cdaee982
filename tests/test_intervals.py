"""Tests for attribute analysis and alive-interval selection."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.histogram import ClassHistogram
from repro.core.intervals import (
    analyze_attribute,
    analyze_attributes,
    choose_split_attribute,
    select_alive_intervals,
)


def hist_from_values(values, labels, edges, n_classes=2):
    hist = ClassHistogram(np.asarray(edges, dtype=float), n_classes)
    hist.update(np.asarray(values, dtype=float), np.asarray(labels))
    return hist


class TestAnalyzeAttribute:
    def test_gini_min_at_true_boundary(self):
        # Classes separated exactly at value 2 (an edge).
        values = [0.5, 1.5, 2.0, 2.5, 3.5, 4.5]
        labels = [0, 0, 0, 1, 1, 1]
        hist = hist_from_values(values, labels, [1.0, 2.0, 3.0, 4.0])
        a = analyze_attribute(0, hist)
        assert a.gini_min == pytest.approx(0.0)
        assert a.best_boundary == 1  # edge value 2.0

    def test_degenerate_boundaries_masked(self):
        # All records above the last edge: every boundary is degenerate.
        hist = hist_from_values([5.0, 6.0], [0, 1], [1.0, 2.0])
        a = analyze_attribute(0, hist)
        assert not a.has_boundaries
        assert np.all(np.isinf(a.boundary_gini))

    def test_single_populated_interval_still_splittable(self):
        # Records concentrate in one interval but with two distinct values:
        # the interval stays alive-capable (est finite), so a split remains
        # reachable through buffering.
        hist = hist_from_values([5.0, 5.2, 5.0, 5.2], [0, 0, 1, 1], [1.0, 2.0])
        a = analyze_attribute(0, hist)
        assert not a.has_boundaries
        assert a.splittable

    def test_constant_attribute_not_exactly_splittable(self):
        hist = hist_from_values([5.0, 5.0, 5.0], [0, 1, 0], [1.0, 2.0])
        a = analyze_attribute(0, hist)
        # Atomic single interval: estimate collapses to boundary values,
        # which are degenerate here.
        assert not a.has_boundaries

    def test_empty_interval_estimates_inf(self):
        hist = hist_from_values([0.5, 2.5], [0, 1], [1.0, 2.0])
        a = analyze_attribute(0, hist)
        assert np.isinf(a.est[1])  # middle interval empty

    def test_footnote_clamp_limits_undershoot(self, rng):
        # The estimate can undershoot the adjacent boundaries by at most
        # 2*N_i/N (footnote 1 of the paper).
        values = rng.uniform(0, 10, 2000)
        labels = (values > 5.01).astype(int)
        edges = np.quantile(values, np.linspace(0.1, 0.9, 9))
        hist = hist_from_values(values, labels, np.unique(edges))
        a = analyze_attribute(0, hist)
        n = hist.n_records
        pops = hist.counts.sum(axis=1)
        raw_bg = np.concatenate(([a.node_gini], hist.boundary_ginis(), [a.node_gini]))
        adj = np.minimum(raw_bg[:-1], raw_bg[1:])
        populated = pops > 0
        assert np.all(a.est[populated] >= adj[populated] - 2 * pops[populated] / n - 1e-9)


class TestSelectAlive:
    def analysis(self, values, labels, edges):
        return analyze_attribute(0, hist_from_values(values, labels, edges))

    def test_no_alive_when_boundary_is_optimal(self):
        # Perfect separation exactly at an edge: no interior can be better.
        values = [0.5, 0.7, 1.5, 1.7]
        labels = [0, 0, 1, 1]
        a = self.analysis(values, labels, [1.0])
        assert select_alive_intervals(a, 2) == []

    def test_alive_when_interior_is_better(self, rng):
        # The optimum (value 5) is strictly inside interval (2, 8].
        values = rng.uniform(0, 10, 1000)
        labels = (values > 5.0).astype(int)
        a = self.analysis(values, labels, [2.0, 8.0])
        alive = select_alive_intervals(a, 2)
        assert 1 in alive

    def test_forced_adjacent_interval(self, rng):
        # Whenever anything is alive, an interval adjacent to the best
        # boundary must be included (zone-edge invariant).
        values = rng.uniform(0, 10, 3000)
        labels = ((values > 3.3) & (values < 7.7)).astype(int)
        edges = np.quantile(values, np.linspace(0.05, 0.95, 19))
        a = self.analysis(values, labels, np.unique(edges))
        alive = select_alive_intervals(a, 2)
        if alive:
            assert a.best_boundary in alive or a.best_boundary + 1 in alive

    def test_cap_respected(self, rng):
        values = rng.uniform(0, 10, 2000)
        labels = (np.sin(values) > 0).astype(int)
        edges = np.quantile(values, np.linspace(0.1, 0.9, 9))
        a = self.analysis(values, labels, np.unique(edges))
        for cap in (0, 1, 2, 3):
            assert len(select_alive_intervals(a, cap)) <= cap

    def test_negative_cap_rejected(self):
        a = self.analysis([0.5, 1.5], [0, 1], [1.0])
        with pytest.raises(ValueError):
            select_alive_intervals(a, -1)


class TestChooseSplitAttribute:
    def test_picks_lowest_score(self, rng):
        n = 2000
        good = rng.uniform(0, 1, n)
        labels = (good > 0.5).astype(int)
        noise = rng.uniform(0, 1, n)
        edges = np.linspace(0.1, 0.9, 9)
        a_good = analyze_attribute(0, hist_from_values(good, labels, edges))
        a_noise = analyze_attribute(1, hist_from_values(noise, labels, edges))
        winner = choose_split_attribute([a_noise, a_good], 2)
        assert winner is not None
        assert winner.attr == 0

    def test_constant_attribute_offers_no_gain(self):
        # A constant attribute's score collapses to the node's own gini, so
        # the builder-level gain check rejects it.
        a = analyze_attribute(0, hist_from_values([5.0, 5.0], [0, 1], [1.0]))
        winner = choose_split_attribute([a], 2)
        assert winner is None or winner.score >= a.node_gini - 1e-12

    def test_returns_none_for_empty_analysis_list(self):
        assert choose_split_attribute([], 2) is None

    def test_winner_gets_alive_populated(self, rng):
        values = rng.uniform(0, 10, 2000)
        labels = (values > 5.0).astype(int)
        a = analyze_attribute(0, hist_from_values(values, labels, [2.0, 8.0]))
        winner = choose_split_attribute([a], 2)
        assert winner is not None
        assert winner.alive  # optimum is interior, so something is alive


class TestAliveZoneBoundaries:
    """Tie handling at alive-interval boundaries (verify-harness audit).

    Zones follow the same ``(lo, hi]`` convention as interval binning: a
    record exactly on an alive interval's lower bound belongs to the
    region *below* (it is not buffered), one exactly on the upper bound
    is buffered.
    """

    def test_value_on_lower_bound_is_region(self):
        from repro.core.builder import classify_zones, zone_boundaries

        bounds = zone_boundaries([(1.0, 2.0)])
        zones = classify_zones(np.array([1.0, 1.5, 2.0, 2.5]), bounds)
        # zone 0 = region below, 1 = alive, 2 = region above
        assert list(zones) == [0, 1, 1, 2]

    def test_ulp_separated_bounds(self):
        from repro.core.builder import classify_zones, zone_boundaries

        lo, hi = 0.5, np.nextafter(0.5, 1.0)
        bounds = zone_boundaries([(lo, hi)])
        zones = classify_zones(np.array([lo, hi, np.nextafter(hi, 1.0)]), bounds)
        assert list(zones) == [0, 1, 2]

    def test_degenerate_alive_interval_rejected(self):
        from repro.core.builder import zone_boundaries

        with pytest.raises(ValueError):
            zone_boundaries([(1.0, 1.0)])

    def test_resolver_finds_exact_cut_between_duplicated_atoms(self):
        # Two ULP-separated atoms inside one alive interval: the resolved
        # threshold must be the lower atom exactly, with the exact gini.
        from repro.core.builder import resolve_exact_threshold

        lo_v = 0.500000001
        hi_v = 0.500000002
        buf_values = np.array([lo_v] * 15 + [hi_v] * 27)
        buf_labels = np.array([0] * 15 + [1] * 27)
        totals = np.array([15.0, 27.0])
        resolved = resolve_exact_threshold(
            totals,
            best_boundary_value=None,
            best_boundary_gini=np.inf,
            alive_bounds=[(0.0, 1.0)],
            alive_cum_below=[np.zeros(2)],
            buf_values=buf_values,
            buf_labels=buf_labels,
        )
        assert resolved is not None
        assert resolved.threshold == lo_v
        assert resolved.gini == 0.0
        assert resolved.from_buffer

    def test_resolver_excludes_records_on_lower_bound(self):
        # A buffered array may hold records outside the alive interval;
        # one exactly on the open lower bound must not become a candidate.
        from repro.core.builder import resolve_exact_threshold

        buf_values = np.array([1.0, 1.5, 2.0])
        buf_labels = np.array([0, 0, 1])
        resolved = resolve_exact_threshold(
            np.array([2.0, 1.0]),
            best_boundary_value=None,
            best_boundary_gini=np.inf,
            alive_bounds=[(1.0, 2.0)],
            alive_cum_below=[np.array([1.0, 0.0])],
            buf_values=buf_values,
            buf_labels=buf_labels,
        )
        assert resolved is not None
        # 1.0 sits on the open lower bound: the only in-interval distinct
        # cut is after 1.5, which separates the classes exactly.
        assert resolved.threshold == 1.5
        assert resolved.gini == 0.0


@st.composite
def histogram_batches(draw, max_q: int = 12, max_segments: int = 6):
    """``(attr, ClassHistogram)`` pairs sharing one class count.

    Covers single-interval histograms, empty rows, all-empty histograms
    and atomic (single distinct value) rows; ``c`` spans numpy's switch
    to pairwise class-axis sums at 8.
    """
    c = draw(st.integers(2, 12))
    items = []
    for attr in range(draw(st.integers(1, max_segments))):
        q = draw(st.integers(1, max_q))
        counts = draw(
            hnp.arrays(np.float64, (q, c), elements=st.integers(0, 60).map(float))
        )
        kind = draw(st.sampled_from(["dense", "sparse", "empty"]))
        if kind == "empty":
            counts[:] = 0.0
        elif kind == "sparse":
            counts[draw(hnp.arrays(bool, q))] = 0.0
        atomic = draw(hnp.arrays(bool, q))
        hist = ClassHistogram(np.arange(q - 1, dtype=np.float64), c)
        hist.counts[:] = counts
        populated = counts.sum(axis=1) > 0
        low = np.arange(q, dtype=np.float64) - 0.5
        hist.vmin[:] = np.where(populated, low, np.inf)
        hist.vmax[:] = np.where(populated, np.where(atomic, low, low + 0.25), -np.inf)
        items.append((attr, hist))
    return items


def assert_batched_matches_single(items):
    with np.errstate(divide="raise", invalid="raise"):
        batched = analyze_attributes(items)
        singles = [analyze_attribute(a, h) for a, h in items]
    assert len(batched) == len(singles)
    for b, s in zip(batched, singles):
        assert b.attr == s.attr
        assert np.array_equal(b.edges, s.edges)
        assert np.array_equal(b.boundary_gini, s.boundary_gini)
        assert np.array_equal(b.est, s.est)
        assert b.gini_min == s.gini_min
        assert b.best_boundary == s.best_boundary
        assert b.est_min == s.est_min
        assert b.node_gini == s.node_gini


class TestAnalyzeAttributes:
    """The stacked analysis is bit-equal to analysing each histogram alone."""

    @given(histogram_batches())
    @settings(max_examples=80, deadline=None)
    def test_batched_equals_per_histogram(self, items):
        assert_batched_matches_single(items)

    @pytest.mark.fuzz
    @given(histogram_batches(max_q=200, max_segments=40))
    @settings(max_examples=300, deadline=None)
    def test_batched_equals_per_histogram_wide(self, items):
        assert_batched_matches_single(items)

    def test_empty_batch(self):
        assert analyze_attributes([]) == []

    def test_single_interval_has_no_split(self):
        hist = hist_from_values([0.5, 0.7], [0, 1], [])
        a = analyze_attribute(0, hist)
        assert len(a.boundary_gini) == 0
        assert a.best_boundary == -1
        assert np.all(np.isinf(a.est)) and not a.splittable
