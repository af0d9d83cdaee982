"""End-to-end tests for the full CMP (linear-combination splits)."""

import numpy as np
import pytest

from repro.baselines.sprint import SprintBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.splits import LinearSplit
from repro.eval.metrics import accuracy

from conftest import assert_tree_consistent


class TestCMPLinear:
    def test_finds_linear_split_on_diagonal(self, diagonal, fast_config):
        result = CMPBuilder(fast_config).build(diagonal)
        assert result.stats.linear_splits >= 1
        linear_nodes = [
            n
            for n in result.tree.iter_nodes()
            if n.split is not None and isinstance(n.split, LinearSplit)
        ]
        assert linear_nodes
        # The discovered line approximates x + y <= 1.
        split = linear_nodes[0].split
        ratio = split.b / split.a
        assert 0.6 < ratio < 1.6
        assert 0.7 < split.c / split.a / (1 + ratio) * 2 < 1.3

    def test_linear_tree_much_smaller_than_univariate(self, diagonal, fast_config):
        cmp_tree = CMPBuilder(fast_config).build(diagonal).tree
        exact_tree = SprintBuilder(fast_config).build(diagonal).tree
        assert cmp_tree.n_nodes < exact_tree.n_nodes / 2
        assert accuracy(cmp_tree, diagonal) >= accuracy(exact_tree, diagonal) - 0.02

    def test_counts_consistent_with_routing(self, diagonal, fast_config):
        result = CMPBuilder(fast_config).build(diagonal)
        assert_tree_consistent(result.tree, diagonal)

    def test_every_pending_counts_its_parts(self, diagonal, fast_config, monkeypatch):
        # A linear pending keeps its band in ``zone_bounds`` and no alive
        # bounds; its two parts must still count as two, or the level
        # step would take it for a one-part root pending.
        seen = []
        step = CMPBuilder._step

        def spy(self, live, *args):
            seen.extend(p for m in live for p in m.pendings.values())
            return step(self, live, *args)

        monkeypatch.setattr(CMPBuilder, "_step", spy)
        result = CMPBuilder(fast_config).build(diagonal)
        assert result.stats.linear_splits >= 1
        # The roots' pendings are plain one-part pendings, the rest BPendings.
        assert any(getattr(p, "linear", None) is not None for p in seen)
        for p in seen:
            sides = getattr(p, "sides", [])
            assert p.n_parts == (len(sides) or len(p.parts))
            for side in sides:
                assert side.n_parts == len(side.parts)

    def test_function_f_consistency_and_lines(self, ff_small, fast_config):
        cfg = fast_config.with_(max_depth=10)
        result = CMPBuilder(cfg).build(ff_small)
        assert_tree_consistent(result.tree, ff_small)
        assert accuracy(result.tree, ff_small) > 0.97

    def test_no_lines_on_uncorrelated_data(self, two_blob, fast_config):
        # x0 alone separates the classes: the trigger never fires.
        result = CMPBuilder(fast_config).build(two_blob)
        assert result.stats.linear_splits == 0

    def test_trigger_disables_linear(self, diagonal, fast_config):
        cfg = fast_config.with_(linear_trigger_gini=0.99)
        result = CMPBuilder(cfg).build(diagonal)
        assert result.stats.linear_splits == 0

    def test_min_records_gate(self, diagonal, fast_config):
        cfg = fast_config.with_(linear_min_records=10**9)
        result = CMPBuilder(cfg).build(diagonal)
        assert result.stats.linear_splits == 0

    def test_acceptance_ratio_gate(self, diagonal, fast_config):
        # Requiring the line to be 1000x better than univariate blocks it.
        cfg = fast_config.with_(linear_accept_ratio=0.001)
        result = CMPBuilder(cfg).build(diagonal)
        assert result.stats.linear_splits == 0

    def test_deterministic(self, diagonal, fast_config):
        a = CMPBuilder(fast_config).build(diagonal)
        b = CMPBuilder(fast_config).build(diagonal)
        assert a.tree.render() == b.tree.render()

    def test_inherits_cmp_b_behaviour(self, f2_small, fast_config):
        # Without strong linear structure CMP behaves like CMP-B.
        result = CMPBuilder(fast_config).build(f2_small)
        assert_tree_consistent(result.tree, f2_small)
        assert accuracy(result.tree, f2_small) > 0.9
