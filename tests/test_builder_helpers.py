"""Tests for shared builder machinery (zones, buffers, exact resolution,
scan-worker accounting)."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.core.builder import (
    PartState,
    PendingSplit,
    RecordBuffer,
    ResolvedThreshold,
    adaptive_intervals,
    classify_zones,
    make_part_hists,
    resolve_exact_threshold,
    zone_boundaries,
)
from repro.core.cmp_s import CMPSBuilder
from repro.core.gini import gini_partition
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.tree import Node
from repro.data.schema import Schema, categorical, continuous
from repro.io.pager import ScanChunk


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


def route_by_masks(chunk, nid, pendings, weights=None):
    """The per-slot mask routing ``LevelBuilder._route_chunk`` replaced."""
    slots = nid[chunk.start : chunk.stop]
    if weights is not None:
        weights = weights[chunk.start : chunk.stop]
    for slot, p in pendings.items():
        mask = slots == slot
        if mask.any():
            p.route(
                chunk.X[mask],
                chunk.y[mask],
                chunk.rids[mask],
                nid,
                None if weights is None else weights[mask],
            )


ROUTE_SCHEMA = Schema(
    (continuous("a"), continuous("b"), categorical("c", ("x", "y", "z"))),
    ("n", "p"),
)


def random_pendings(rng, n_slots):
    """Exact and estimated pendings on a random subset of ``n_slots``."""
    edges = {0: np.array([-0.5, 0.0, 0.5]), 1: np.array([0.0])}
    next_slot = n_slots
    pendings = {}
    for slot in range(n_slots):
        if rng.random() < 0.3:
            continue  # a slot that no pending owns
        node = Node(slot, 1, np.zeros(2))
        kind = rng.integers(0, 3)
        if kind == 2:  # estimated around one alive interval: two parts
            lo = float(rng.normal())
            alive = [(lo, lo + 0.5)]
            fields = dict(
                attr=int(rng.integers(0, 2)),
                alive_bounds=alive,
                zone_bounds=zone_boundaries(alive),
            )
        else:
            split = (
                NumericSplit(int(rng.integers(0, 2)), float(rng.normal()))
                if kind == 0
                else CategoricalSplit(2, (True, False, True))
            )
            fields = dict(exact_split=split)
        parts = []
        for __ in range(2):
            parts.append(PartState(next_slot, 2, make_part_hists(ROUTE_SCHEMA, edges)))
            next_slot += 1
        pendings[slot] = PendingSplit(node=node, parent_slot=slot, parts=parts, **fields)
    return pendings


def assert_routed_alike(a, b):
    for p, q in zip(a.values(), b.values()):
        for part, qart in zip(p.parts, q.parts):
            np.testing.assert_array_equal(part.class_counts, qart.class_counts)
            for j, h in part.hists.items():
                np.testing.assert_array_equal(h.counts, qart.hists[j].counts)
        for got, want in zip(p.buffer.concatenated(), q.buffer.concatenated()):
            np.testing.assert_array_equal(got, want)


class TestGroupedRouting:
    """One stable sort per chunk routes exactly like a mask per pending."""

    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(1, 400),
        st.booleans(),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_per_slot_masks(self, seed, n_slots, n, bagged):
        rng = np.random.default_rng(seed)
        table_X = rng.normal(size=(n + 50, 3))
        table_X[:, 2] = rng.integers(0, 3, size=n + 50)
        table_y = rng.integers(0, 2, size=n + 50)
        # Negative slots are records the tree never drew (or never holds).
        nid = rng.integers(-2, n_slots, size=n + 50)
        weights = None
        if bagged:
            weights = rng.integers(0, 4, size=n + 50).astype(np.float64)
            nid[weights == 0] = -1
        start = int(rng.integers(0, 50))
        chunk = ScanChunk(start, table_X[start : start + n], table_y[start : start + n])
        pendings = random_pendings(rng, n_slots)
        want = copy.deepcopy(pendings)
        nid_want = nid.copy()
        CMPSBuilder()._route_chunk(chunk, nid, pendings, weights)
        route_by_masks(chunk, nid_want, want, weights)
        np.testing.assert_array_equal(nid, nid_want)
        assert_routed_alike(pendings, want)

    def test_no_pendings_is_a_no_op(self):
        nid = np.zeros(4, dtype=np.int64)
        chunk = ScanChunk(0, np.zeros((4, 3)), np.zeros(4, dtype=np.int64))
        CMPSBuilder()._route_chunk(chunk, nid, {})
        np.testing.assert_array_equal(nid, 0)


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
