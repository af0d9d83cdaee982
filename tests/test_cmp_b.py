"""End-to-end tests for CMP-B (matrices, prediction, two-level growth)."""

import itertools

import numpy as np
import pytest

from repro.baselines.sprint import SprintBuilder
from repro.core.builder import PartState, PendingScan, PendingSplit, zone_boundaries
from repro.core.cmp_b import BPending, CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.splits import NumericSplit
from repro.core.tree import Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.eval.metrics import accuracy
from repro.io.metrics import BuildStats

from conftest import assert_tree_consistent


class TestCMPBEndToEnd:
    def test_counts_consistent_with_routing(self, f2_small, fast_config):
        result = CMPBBuilder(fast_config).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_consistent_on_f7(self, f7_small, fast_config):
        result = CMPBBuilder(fast_config).build(f7_small)
        assert_tree_consistent(result.tree, f7_small)

    def test_accuracy_close_to_exact(self, f2_small, fast_config):
        b_acc = accuracy(CMPBBuilder(fast_config).build(f2_small).tree, f2_small)
        exact_acc = accuracy(SprintBuilder(fast_config).build(f2_small).tree, f2_small)
        assert b_acc > exact_acc - 0.03

    def test_never_more_scans_than_cmp_s(self, f2_small, fast_config):
        s_scans = CMPSBuilder(fast_config).build(f2_small).stats.io.scans
        b_scans = CMPBBuilder(fast_config).build(f2_small).stats.io.scans
        assert b_scans <= s_scans

    def test_predictions_are_recorded(self, f2_small, fast_config):
        stats = CMPBBuilder(fast_config).build(f2_small).stats
        assert stats.predictions_made > 0
        assert 0 <= stats.predictions_correct <= stats.predictions_made

    def test_two_level_growth_happens(self, fast_config):
        # A dataset where the same attribute keeps splitting: prediction
        # locks on and second splits fire, so some scan grows two levels.
        rng = np.random.default_rng(3)
        n = 6_000
        x0 = rng.uniform(0, 16, n)
        x1 = rng.uniform(0, 1, n)
        y = (np.floor(x0 / 2) % 2).astype(np.int64)  # 8 stripes along x0
        ds = Dataset(
            np.column_stack([x0, x1]),
            y,
            Schema((continuous("a"), continuous("b")), ("s0", "s1")),
        )
        result = CMPBBuilder(fast_config.with_(max_depth=10)).build(ds)
        assert result.tree.depth > 2
        assert result.stats.two_level_splits >= 1
        assert accuracy(result.tree, ds) > 0.95

    def test_deterministic(self, f2_small, fast_config):
        a = CMPBBuilder(fast_config).build(f2_small)
        b = CMPBBuilder(fast_config).build(f2_small)
        assert a.tree.render() == b.tree.render()

    def test_requires_two_continuous_attributes(self, fast_config, rng):
        ds = Dataset(
            rng.normal(size=(100, 1)),
            rng.integers(0, 2, 100),
            Schema((continuous("only"),), ("a", "b")),
        )
        with pytest.raises(ValueError, match="two continuous"):
            CMPBBuilder(fast_config).build(ds)

    @pytest.mark.parametrize("builder_cls", [CMPBBuilder, CMPBuilder])
    def test_rejects_buffer_budget(self, f2_small, fast_config, builder_cls):
        # CMP-B and CMP buffer two-level and linear bands with no overflow
        # rescan, so a budget could not be honoured: refuse it rather than
        # silently ignoring the memory bound.
        with pytest.raises(ValueError, match="buffer_budget_bytes"):
            builder_cls(fast_config.with_(buffer_budget_bytes=2_048)).build(f2_small)

    def test_categorical_splits_supported(self, mixed_types, fast_config):
        result = CMPBBuilder(fast_config).build(mixed_types)
        assert_tree_consistent(result.tree, mixed_types)
        assert accuracy(result.tree, mixed_types) == 1.0

    def test_memory_released(self, f2_small, fast_config):
        result = CMPBBuilder(fast_config).build(f2_small)
        assert result.stats.memory.current == 0
        assert result.stats.memory.peak > 0

    def test_matrix_cells_capped(self, f2_small, fast_config):
        cfg = fast_config.with_(matrix_max_cells=64)
        result = CMPBBuilder(cfg).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_x_tie_margin_zero_still_works(self, f2_small, fast_config):
        cfg = fast_config.with_(x_tie_margin=0.0)
        result = CMPBBuilder(cfg).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)

    def test_public_pruning(self, f2_small, fast_config):
        plain = CMPBBuilder(fast_config).build(f2_small)
        pruned = CMPBBuilder(fast_config.with_(prune="public")).build(f2_small)
        assert pruned.tree.n_nodes <= plain.tree.n_nodes


SIDE_SCHEMA = Schema(
    (continuous("a"), continuous("b"), categorical("c", ("x", "y", "z"))),
    ("n", "p"),
)


def two_level_pending(first_exact: bool, kinds: tuple[str, str]) -> BPending:
    """A two-level pending on ``a`` whose sides are ``kinds``: ``single``
    (one part), or a second split on ``b`` that is ``exact`` or
    ``estimated`` around one alive run."""
    edges = {0: np.array([-0.5, 0.0, 0.5]), 1: np.array([-1.0, 0.0, 1.0])}
    slots = itertools.count(1)

    def part() -> PartState:
        return PartState.planned(next(slots), SIDE_SCHEMA, edges, x_attr=1)

    p = BPending(node=Node(0, 0, np.zeros(2)), parent_slot=0, attr=0)
    if first_exact:
        p.exact_split = NumericSplit(0, 0.0)
    else:
        p.alive_bounds = [(-0.25, 0.25)]
        p.zone_bounds = zone_boundaries(p.alive_bounds)
    for kind in kinds:
        parts = [part()] if kind == "single" else [part(), part()]
        side = PendingSplit(node=None, parent_slot=parts[0].slot, attr=1, parts=parts)
        if kind == "exact":
            side.exact_split = NumericSplit(1, 0.3)
        elif kind == "estimated":
            side.alive_bounds = [(-0.5, 0.5)]
            side.zone_bounds = zone_boundaries(side.alive_bounds)
        p.sides.append(side)
    return p


def buffers(p: BPending) -> list:
    """The first split's and every side's buffered arrays."""
    bufs = [p.buffer] + [side.buffer for side in p.sides]
    return [arr for buf in bufs for arr in buf.concatenated()]


class TestTwoLevelScanDeltas:
    """Two scan deltas over split chunks, merged in order, equal one serial
    route of a two-level pending, whatever its sides' shapes."""

    @pytest.mark.parametrize("first_exact", [False, True])
    @pytest.mark.parametrize(
        "kinds",
        [
            ("single", "exact"),
            ("estimated", "single"),
            ("exact", "estimated"),
            ("single", "single"),
        ],
    )
    @pytest.mark.parametrize("seed", [0, 1])
    def test_deltas_merge_to_serial(self, first_exact, kinds, seed):
        rng = np.random.default_rng(seed)
        n = 400
        X = np.column_stack(
            [rng.normal(0, 0.5, n), rng.normal(0, 1, n), rng.integers(0, 3, n)]
        ).astype(np.float64)
        y = rng.integers(0, 2, n)
        rids = np.arange(n)
        serial = two_level_pending(first_exact, kinds)
        nid_serial = np.zeros(n, dtype=np.int64)
        serial.route(X, y, rids, nid_serial)

        merged = two_level_pending(first_exact, kinds)
        nid_merged = np.zeros(n, dtype=np.int64)
        scan = PendingScan(nid_merged, None, {0: merged})
        cut = int(rng.integers(1, n))
        deltas = [scan.scan_delta() for __ in range(2)]
        for delta, chunk in zip(deltas, (slice(0, cut), slice(cut, n))):
            merged.route(X[chunk], y[chunk], rids[chunk], nid_merged, None, delta)
        for delta in deltas:
            scan.merge_scan_delta(delta)

        np.testing.assert_array_equal(nid_merged, nid_serial)
        assert len(merged.all_parts()) == len(serial.all_parts())
        for got, want in zip(merged.all_parts(), serial.all_parts()):
            assert got.slot == want.slot
            np.testing.assert_array_equal(got.class_counts, want.class_counts)
            for j, m in want.mset.matrices.items():
                np.testing.assert_array_equal(got.mset.matrices[j].counts, m.counts)
            for j, h in want.mset.categorical.items():
                np.testing.assert_array_equal(got.mset.categorical[j].counts, h.counts)
        for got, want in zip(buffers(merged), buffers(serial), strict=True):
            np.testing.assert_array_equal(got, want)
        # The route reached every part, and every estimated split buffered.
        assert all(part.class_counts.sum() > 0 for part in serial.all_parts())
        estimated = [q for q in [serial] + serial.sides if len(q.alive_bounds)]
        assert all(q.buffer.n_records > 0 for q in estimated)


class TestTwoLevelNaNRouting:
    @pytest.mark.parametrize("first_exact", [False, True])
    def test_nan_goes_to_right_side(self, first_exact):
        # NumericSplit.goes_left sends NaN right at prediction; the scan
        # must put the record on the same side of the first split.
        X = np.array([[np.nan, 0.0, 0.0], [-1.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
        p = two_level_pending(first_exact, ("single", "single"))
        nid = np.zeros(3, dtype=np.int64)
        p.route(X, np.array([0, 1, 0]), np.arange(3), nid)
        left, right = (side.parts[0].slot for side in p.sides)
        np.testing.assert_array_equal(nid, [right, left, right])


class TestFailedSecondSplit:
    def test_folds_into_first_part_and_is_decided_again(self, fast_config):
        # Every record right of the first split has b = 0, inside the
        # second split's alive run (-0.5, 0.5]: the run's edges leave a
        # side empty and equal values give no cut, so no threshold is
        # valid.  The side's child stays open on its first part.
        rng = np.random.default_rng(4)
        n = 200
        a = rng.normal(0, 1, n)
        X = np.column_stack([a, np.where(a > 0, 0.0, rng.normal(0, 1, n)), np.zeros(n)])
        y = rng.integers(0, 2, n)
        p = two_level_pending(True, ("single", "estimated"))
        nid = np.zeros(n, dtype=np.int64)
        p.route(X, y, np.arange(n), nid)
        first, second = p.sides[1].parts
        remap: dict[int, int] = {}
        stats = BuildStats()
        items = CMPBBuilder(fast_config)._resolve(
            p, nid, remap, TreeAccount(), SIDE_SCHEMA, stats
        )
        child = p.node.right
        assert child.is_leaf and items[-1] == (child, first)
        want = np.bincount(y[a > 0], minlength=2)
        np.testing.assert_array_equal(child.class_counts, want)
        np.testing.assert_array_equal(first.class_counts, want)
        assert remap[second.slot] == first.slot
        assert (nid[a > 0] == first.slot).all()
        assert stats.two_level_splits == 0
