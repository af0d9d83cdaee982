"""End-to-end tests for CMP-B (matrices, prediction, two-level growth)."""

import numpy as np
import pytest

from repro.baselines.sprint import SprintBuilder
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.data.dataset import Dataset
from repro.data.schema import Schema, continuous
from repro.eval.metrics import accuracy

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
