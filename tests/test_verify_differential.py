"""The differential harness must (a) pass on healthy builders and (b) flag
a corrupted tree — both directions are tested, since a checker that never
fires proves nothing."""

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.baselines.sliq import SliqBuilder
from repro.core.splits import NumericSplit
from repro.data.dataset import Dataset
from repro.data.schema import Schema, continuous
from repro.eval.treegen import adversarial_dataset
from repro.verify.differential import (
    EPS,
    check_tree_against_oracle,
    estimator_bound,
    run_differential,
    tree_signature,
)
from repro.verify.oracle import OracleSplit


VERIFY_CONFIG = BuilderConfig(
    n_intervals=16, max_depth=6, min_records=25, reservoir_capacity=5000
)


class TestTreeSignature:
    def test_identical_builds_compare_equal(self, two_blob, fast_config):
        a = SliqBuilder(fast_config).build(two_blob).tree
        b = SliqBuilder(fast_config).build(two_blob).tree
        assert tree_signature(a) == tree_signature(b)

    def test_different_data_differ(self, two_blob, mixed_types, fast_config):
        a = SliqBuilder(fast_config).build(two_blob).tree
        b = SliqBuilder(fast_config).build(mixed_types).tree
        assert tree_signature(a) != tree_signature(b)


class TestRunDifferential:
    @pytest.mark.parametrize("profile", ["ties", "mixed", "skew"])
    def test_all_builders_clean(self, profile):
        ds = adversarial_dataset(profile, n=250, seed=3)
        report = run_differential(ds, VERIFY_CONFIG)
        errors = [f for f in report.findings if f.severity == "error"]
        assert not errors, "\n".join(str(f) for f in errors)
        assert report.ok
        by_name = {o.builder: o for o in report.outcomes}
        assert set(by_name) == {"CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ"}
        for o in report.outcomes:
            assert 0.0 <= o.accuracy <= 1.0
            assert 0.0 <= o.oracle_agreement <= 1.0
        # Exact builders track the oracle with no estimator gap at all.
        assert by_name["SLIQ"].stats.max_gap <= EPS

    def test_rows_match_outcomes(self):
        ds = adversarial_dataset("near_boundary", n=200, seed=1)
        report = run_differential(ds, VERIFY_CONFIG, builders=("CMP-S", "SLIQ"))
        rows = report.rows()
        assert len(rows) == 2
        for row in rows:
            assert {"builder", "accuracy", "max_gap", "max_bound"} <= set(row)


class TestDetectionPower:
    """A checker is only as good as its ability to fire."""

    def build(self, rng):
        X = np.column_stack([rng.normal(size=300), rng.normal(size=300)])
        y = (X[:, 0] > 0.0).astype(np.int64)
        ds = Dataset(X, y, Schema((continuous("a"), continuous("b")), ("n", "p")))
        result = SliqBuilder(
            VERIFY_CONFIG.with_(prune="none", max_depth=3)
        ).build(ds)
        return ds, result.tree

    def test_healthy_tree_passes(self, rng):
        ds, tree = self.build(rng)
        findings, stats = check_tree_against_oracle(
            tree, ds, VERIFY_CONFIG, "SLIQ"
        )
        assert not [f for f in findings if f.severity == "error"]
        assert stats.n_internal >= 1

    def test_corrupted_threshold_is_flagged(self, rng):
        ds, tree = self.build(rng)
        root = tree.root
        assert isinstance(root.split, NumericSplit)
        # Drag the root threshold far off the optimum: the achieved gini
        # (recomputed from actual routing) must now exceed the bound.
        root.split = NumericSplit(
            root.split.attr, float(np.quantile(ds.X[:, root.split.attr], 0.95))
        )
        findings, __ = check_tree_against_oracle(tree, ds, VERIFY_CONFIG, "SLIQ")
        kinds = {f.kind for f in findings if f.severity == "error"}
        assert kinds  # corruption cannot pass silently
        assert any("mismatch" in k or "gap" in k or "bound" in k for k in kinds)

    def test_corrupted_counts_are_flagged(self, rng):
        ds, tree = self.build(rng)
        leaf = next(n for n in tree.iter_nodes() if n.is_leaf)
        leaf.class_counts = leaf.class_counts + 1.0
        findings, __ = check_tree_against_oracle(tree, ds, VERIFY_CONFIG, "SLIQ")
        assert any(
            f.kind == "count_mismatch" and f.severity == "error" for f in findings
        )


class TestEstimatorBound:
    def make_oracle(self, numeric, categorical):
        return OracleSplit(
            split=None,
            gini=min(numeric, categorical),
            numeric_gini=numeric,
            numeric_attr=0,
            categorical_gini=categorical,
        )

    def test_exact_builders_get_eps(self, rng):
        X = rng.normal(size=(100, 1))
        b = estimator_bound(
            X, NumericSplit(0, 0.0), self.make_oracle(0.1, 0.2),
            VERIFY_CONFIG, 0.5, "SLIQ", 2.0, [0],
        )
        assert b == EPS

    def test_second_level_uses_numeric_reference(self, rng):
        # Categorical oracle strictly better: a first-level node gets no
        # oracle-side slack (the categorical side is exact), but a
        # second-level node competes among continuous attributes only,
        # so the numeric slack applies.
        X = rng.normal(size=(100, 1))
        args = (
            X, NumericSplit(0, 0.0), self.make_oracle(0.3, 0.1),
            VERIFY_CONFIG, 0.5, "CMP-S", 2.0, [0],
        )
        first = estimator_bound(*args, second_level=False)
        second = estimator_bound(*args, second_level=True)
        assert second > first

    def test_safety_scales_linearly(self, rng):
        X = rng.normal(size=(100, 1))
        args = (
            X, NumericSplit(0, 0.0), self.make_oracle(0.1, 0.2),
            VERIFY_CONFIG, 0.5, "CMP-S",
        )
        b1 = estimator_bound(*args[:6], 1.0, [0])
        b2 = estimator_bound(*args[:6], 2.0, [0])
        assert b2 - EPS == pytest.approx(2.0 * (b1 - EPS))
