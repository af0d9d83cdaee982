"""Tests for shared builder machinery (zones, buffers, exact resolution,
scan-worker accounting)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.core.builder import (
    RecordBuffer,
    ResolvedThreshold,
    adaptive_intervals,
    classify_zones,
    resolve_exact_threshold,
    zone_boundaries,
)
from repro.core.gini import gini_partition


class TestZones:
    def test_boundaries_flatten(self):
        b = zone_boundaries([(1.0, 2.0), (5.0, 7.0)])
        np.testing.assert_array_equal(b, [1.0, 2.0, 5.0, 7.0])

    def test_classification_layout(self):
        b = zone_boundaries([(1.0, 2.0), (5.0, 7.0)])
        values = np.array([0.5, 1.0, 1.5, 2.0, 3.0, 5.0, 6.0, 7.0, 9.0])
        zones = classify_zones(values, b)
        # regions are even, alive intervals odd
        np.testing.assert_array_equal(zones, [0, 0, 1, 1, 2, 2, 3, 3, 4])

    def test_unbounded_alive(self):
        b = zone_boundaries([(-np.inf, 2.0)])
        zones = classify_zones(np.array([-100.0, 2.0, 3.0]), b)
        np.testing.assert_array_equal(zones, [1, 1, 2])

    def test_rejects_empty_interval(self):
        with pytest.raises(ValueError, match="empty"):
            zone_boundaries([(2.0, 2.0)])

    def test_rejects_overlap(self):
        with pytest.raises(ValueError, match="disjoint"):
            zone_boundaries([(1.0, 3.0), (2.0, 4.0)])

    def test_adjacent_intervals_allowed(self):
        b = zone_boundaries([(1.0, 2.0), (2.0, 3.0)])
        zones = classify_zones(np.array([1.5, 2.5]), b)
        np.testing.assert_array_equal(zones, [1, 3])


class TestRecordBuffer:
    def test_append_and_concat(self):
        buf = RecordBuffer()
        buf.append(np.ones((2, 3)), np.array([0, 1]), np.array([5, 6]))
        buf.append(np.zeros((1, 3)), np.array([1]), np.array([9]))
        X, y, rids = buf.concatenated()
        assert X.shape == (3, 3)
        np.testing.assert_array_equal(y, [0, 1, 1])
        np.testing.assert_array_equal(rids, [5, 6, 9])
        assert buf.n_records == 3
        assert buf.nbytes() > 0

    def test_empty_buffer(self):
        X, y, rids = RecordBuffer().concatenated()
        assert len(y) == 0 and len(rids) == 0

    def test_copies_inputs(self):
        buf = RecordBuffer()
        X = np.ones((1, 2))
        buf.append(X, np.array([0]), np.array([0]))
        X[0, 0] = 99.0
        got, __, __ = buf.concatenated()
        assert got[0, 0] == 1.0


class TestAdaptiveIntervals:
    def test_large_nodes_get_configured_grid(self):
        assert adaptive_intervals(100, 1_000_000) == 100

    def test_small_nodes_shrink(self):
        assert adaptive_intervals(100, 100) == 6
        assert adaptive_intervals(100, 10) >= 4

    def test_floor(self):
        assert adaptive_intervals(100, 0) == 4


class TestResolveExactThreshold:
    def test_boundary_wins_when_buffer_empty(self):
        totals = np.array([10.0, 10.0])
        res = resolve_exact_threshold(
            totals, 5.0, 0.25, [(4.0, 6.0)], [np.array([5.0, 1.0])],
            np.empty(0), np.empty(0, dtype=int),
        )
        assert res == ResolvedThreshold(5.0, 0.25, False, n_candidates=1)

    def test_interior_beats_boundary(self):
        # 6 class-0 records below the interval; buffered records split
        # perfectly at 5.0 inside the alive interval.
        totals = np.array([8.0, 4.0])
        cum_below = np.array([6.0, 0.0])
        buf_v = np.array([4.5, 4.8, 5.0, 5.5, 6.0, 6.5])
        buf_y = np.array([0, 0, 0, 1, 1, 1])
        res = resolve_exact_threshold(
            totals, 4.0, 0.4, [(4.0, 7.0)], [cum_below], buf_v, buf_y
        )
        assert res is not None
        assert res.from_buffer
        assert res.threshold == 5.0
        left = cum_below + np.array([3.0, 0.0])
        expected = gini_partition(left, totals - left)
        assert res.gini == pytest.approx(expected)

    def test_no_candidates_returns_none(self):
        totals = np.array([3.0, 3.0])
        res = resolve_exact_threshold(
            totals, None, np.inf, [(0.0, 1.0)], [np.zeros(2)],
            np.full(6, 0.5), np.array([0, 1, 0, 1, 0, 1]),
        )
        assert res is None  # single distinct buffered value, no boundary

    def test_degenerate_candidates_skipped(self):
        # All records buffered with the same label layout such that every
        # split leaves one side empty except the interior one.
        totals = np.array([2.0, 2.0])
        buf_v = np.array([1.0, 2.0, 3.0, 4.0])
        buf_y = np.array([0, 0, 1, 1])
        res = resolve_exact_threshold(
            totals, None, np.inf, [(-np.inf, np.inf)], [np.zeros(2)], buf_v, buf_y
        )
        assert res is not None
        assert res.threshold == 2.0
        assert res.gini == pytest.approx(0.0)

    @given(
        st.lists(
            st.tuples(st.floats(0, 10, allow_nan=False), st.integers(0, 1)),
            min_size=5,
            max_size=60,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force_within_alive(self, pairs):
        # With the entire axis alive and everything buffered, resolution
        # must find the global exact optimum.
        values = np.array([v for v, _ in pairs])
        labels = np.array([c for _, c in pairs], dtype=np.int64)
        if len(np.unique(values)) < 2:
            return
        totals = np.bincount(labels, minlength=2).astype(float)
        res = resolve_exact_threshold(
            totals, None, np.inf, [(-np.inf, np.inf)], [np.zeros(2)], values, labels
        )
        assert res is not None
        best = np.inf
        for cand in np.unique(values)[:-1]:
            left = np.bincount(labels[values <= cand], minlength=2)
            right = np.bincount(labels[values > cand], minlength=2)
            best = min(best, gini_partition(left, right))
        assert res.gini == pytest.approx(best)


class TestSerialScanAccounting:
    """Builders that scan serially get no scan-worker CPU discount."""

    @pytest.mark.parametrize(
        "builder_cls", [RainForestBuilder, SprintBuilder, SliqBuilder]
    )
    def test_workers_setting_ignored_by_serial_builders(
        self, builder_cls, f2_small, fast_config
    ):
        serial = builder_cls(fast_config).build(f2_small)
        asked = builder_cls(fast_config.with_(scan_workers=4)).build(f2_small)
        assert asked.stats.parallel_batches == 0
        assert asked.stats.scan_workers == 1
        assert asked.stats.simulated_ms == serial.stats.simulated_ms
