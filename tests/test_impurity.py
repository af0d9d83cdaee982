"""Tests for pluggable impurity criteria."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.gini import exact_best_threshold, gini, gini_partition
from repro.core.impurity import (
    best_threshold_sorted,
    boundary_impurities,
    entropy_impurity,
    get_criterion,
    gini_impurity,
    partition_impurity,
)
from repro.eval.metrics import accuracy

from conftest import assert_tree_consistent

count_vectors = hnp.arrays(
    np.float64,
    st.integers(min_value=2, max_value=5),
    elements=st.integers(min_value=0, max_value=500).map(float),
)


class TestCriteria:
    def test_gini_delegates(self):
        counts = np.array([3.0, 7.0])
        assert gini_impurity(counts) == gini(counts)

    def test_entropy_values(self):
        assert entropy_impurity(np.array([8.0, 8.0])) == pytest.approx(1.0)
        assert entropy_impurity(np.array([10.0, 0.0])) == 0.0
        assert entropy_impurity(np.zeros(3)) == 0.0

    def test_entropy_bounds(self):
        # Uniform over c classes gives log2(c).
        assert entropy_impurity(np.full(4, 5.0)) == pytest.approx(2.0)

    def test_lookup(self):
        assert get_criterion("gini") is gini_impurity
        assert get_criterion("entropy") is entropy_impurity
        with pytest.raises(ValueError, match="unknown criterion"):
            get_criterion("twoing")

    @given(count_vectors, st.data())
    @settings(max_examples=60, deadline=None)
    def test_entropy_partition_never_exceeds_parent(self, total, data):
        left = np.array(
            [data.draw(st.integers(0, int(t))) for t in total], dtype=np.float64
        )
        right = total - left
        parent = entropy_impurity(total)
        assert partition_impurity(left, right, entropy_impurity) <= parent + 1e-9

    def test_partition_matches_gini_module(self):
        left = np.array([30.0, 10.0])
        right = np.array([5.0, 55.0])
        assert partition_impurity(left, right) == pytest.approx(
            gini_partition(left, right)
        )


class TestBestThreshold:
    def test_gini_matches_reference(self, rng):
        v = np.sort(rng.normal(size=300))
        lab = rng.integers(0, 2, 300)
        assert best_threshold_sorted(v, lab, 2) == exact_best_threshold(v, lab, 2)

    def test_entropy_can_differ_from_gini(self):
        # Asymmetric class sizes where the criteria pick different cuts.
        v = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])
        lab = np.array([0, 0, 0, 1, 0, 1, 1, 1])
        tg, __ = best_threshold_sorted(v, lab, 2, gini_impurity)
        te, __ = best_threshold_sorted(v, lab, 2, entropy_impurity)
        # Both must be sensible cuts; equality is allowed but both valid.
        assert tg in v and te in v

    def test_boundary_impurities_shape(self):
        cum = np.array([[1.0, 0.0], [2.0, 1.0]])
        totals = np.array([3.0, 2.0])
        out = boundary_impurities(cum, totals, entropy_impurity)
        assert out.shape == (2,)


class TestBuildersWithEntropy:
    def test_exact_builders_support_entropy(self, two_blob, fast_config):
        cfg = fast_config.with_(criterion="entropy")
        for builder_cls in (SprintBuilder, SliqBuilder, RainForestBuilder):
            result = builder_cls(cfg).build(two_blob)
            assert_tree_consistent(result.tree, two_blob)
            assert accuracy(result.tree, two_blob) == 1.0

    def test_entropy_trees_agree_across_exact_builders(self, f2_small, fast_config):
        cfg = fast_config.with_(criterion="entropy", max_depth=5)
        trees = [
            builder_cls(cfg).build(f2_small).tree.render()
            for builder_cls in (SprintBuilder, SliqBuilder, RainForestBuilder)
        ]
        assert trees[0] == trees[1] == trees[2]

    def test_cmp_rejects_entropy(self, f2_small, fast_config):
        cfg = fast_config.with_(criterion="entropy")
        with pytest.raises(ValueError, match="only the gini criterion"):
            CMPSBuilder(cfg).build(f2_small)

    def test_config_validation(self, fast_config):
        with pytest.raises(ValueError, match="criterion"):
            fast_config.with_(criterion="bogus")
