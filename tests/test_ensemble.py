"""Shared-scan ensembles: bagging bit-identity, boosting determinism,
packed-forest serving, and the two bugfix regressions that shipped with
them (empty-leaf majority fallback, stratified cross-validation)."""

import os
import subprocess
import sys

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.core.cmp_s import CMPSBuilder
from repro.core.compiled import CompiledForest
from repro.core.tree import DecisionTree, Node
from repro.core.splits import NumericSplit
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.ensemble import (
    BaggedForestBuilder,
    Forest,
    HistGradientBoostingBuilder,
    bootstrap_indices,
    bootstrap_weights,
    member_seed,
)
from repro.eval.crossval import (
    cross_validate,
    kfold_indices,
    stratified_kfold_indices,
)
from repro.eval.treegen import adversarial_dataset
from repro.serve.engine import ModelRegistry
from repro.verify.conformance import ENGINES
from repro.verify.differential import tree_signature
from repro.verify.forest import forest_signatures, run_forest_differential


ENSEMBLE_CONFIG = BuilderConfig(
    n_intervals=16,
    max_depth=4,
    min_records=10,
    reservoir_capacity=4_000,
    page_records=64,
    seed=29,
)


def engine_of(backend: str, workers: int):
    """The conformance matrix's engine of ``workers`` on ``backend``."""
    return next(e for e in ENGINES if (e.backend, e.workers) == (backend, workers))


@pytest.fixture(scope="module")
def small_mixed() -> Dataset:
    """2k records, continuous + categorical signal, three classes."""
    rng = np.random.default_rng(5)
    n = 2_000
    X = np.column_stack(
        [
            rng.normal(0.0, 1.0, n),
            rng.uniform(-2.0, 2.0, n),
            rng.integers(0, 4, n).astype(float),
        ]
    )
    y = ((X[:, 0] > 0).astype(np.int64) + (X[:, 2] >= 2)).astype(np.int64)
    schema = Schema(
        (continuous("a"), continuous("b"), categorical("c", ("w", "x", "y", "z"))),
        ("c0", "c1", "c2"),
    )
    return Dataset(X, y, schema)


class TestBootstrap:
    def test_weights_match_index_multiplicity(self):
        idx = bootstrap_indices(3, 1, 500)
        w = bootstrap_weights(3, 1, 500)
        assert idx.shape == (500,)
        np.testing.assert_array_equal(w, np.bincount(idx, minlength=500))
        assert w.sum() == 500

    def test_members_draw_independent_samples(self):
        a = bootstrap_indices(3, 0, 500)
        b = bootstrap_indices(3, 1, 500)
        assert not np.array_equal(a, b)
        assert member_seed(3, 0) != member_seed(3, 1)

    def test_deterministic(self):
        np.testing.assert_array_equal(
            bootstrap_indices(9, 2, 100), bootstrap_indices(9, 2, 100)
        )


class TestBaggedForestBuilder:
    def test_members_bit_identical_to_solo_builds(self, small_mixed):
        result = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=3).build(small_mixed)
        assert result.forest.n_trees == 3
        assert result.stats.ensemble_members == 3
        n = small_mixed.n_records
        for t, member in enumerate(result.forest.members):
            boot = small_mixed.take(
                np.sort(bootstrap_indices(ENSEMBLE_CONFIG.seed, t, n))
            )
            solo_cfg = ENSEMBLE_CONFIG.with_(
                seed=member_seed(ENSEMBLE_CONFIG.seed, t)
            )
            solo = CMPSBuilder(solo_cfg).build(boot).tree
            assert tree_signature(member) == tree_signature(solo), f"member {t}"

    def test_one_scan_per_level_not_per_tree(self, small_mixed):
        result = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=4).build(small_mixed)
        # One quantiling scan plus one scan per shared level, the roots'
        # included — far fewer than 4 independent builds would issue.
        stats = result.stats
        assert stats.shared_level_scans >= 2
        assert stats.io.scans == (
            1 + stats.shared_level_scans + stats.buffer_overflow_rescans
        )

    def test_buffer_overflow_rescan_keeps_parity(self, small_mixed):
        cfg = ENSEMBLE_CONFIG.with_(buffer_budget_bytes=2_048)
        result = BaggedForestBuilder(cfg, n_trees=2).build(small_mixed)
        stats = result.stats
        assert stats.buffer_overflow_rescans > 0
        assert stats.io.scans == (
            1 + stats.shared_level_scans + stats.buffer_overflow_rescans
        )
        n = small_mixed.n_records
        for t, member in enumerate(result.forest.members):
            boot = small_mixed.take(np.sort(bootstrap_indices(cfg.seed, t, n)))
            solo = CMPSBuilder(
                cfg.with_(seed=member_seed(cfg.seed, t))
            ).build(boot).tree
            assert tree_signature(member) == tree_signature(solo)

    @pytest.mark.parametrize(
        "backend,workers", [("thread", 4), ("process", 4)]
    )
    def test_parallel_backends_bit_identical(
        self, conformance_matrix, backend, workers
    ):
        # A slice of the conformance matrix, on its own mixed set.
        engine = engine_of(backend, workers)
        conformance_matrix.check("bagged-CMP-S", "mixed", engine, f"{engine.label}/")

    def test_soft_vote_equals_member_average(self, small_mixed):
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=3).build(
            small_mixed
        ).forest
        X = small_mixed.X[:500]
        acc = np.zeros((len(X), small_mixed.n_classes))
        for member in forest.members:
            acc += member.compiled().predict_proba(X)
        np.testing.assert_array_equal(forest.predict_proba(X), acc / 3)
        np.testing.assert_array_equal(
            forest.predict(X), np.argmax(acc, axis=1)
        )

    def test_mdl_prune_applies_per_member(self, small_mixed):
        cfg = ENSEMBLE_CONFIG.with_(prune="mdl")
        result = BaggedForestBuilder(cfg, n_trees=2).build(small_mixed)
        n = small_mixed.n_records
        for t, member in enumerate(result.forest.members):
            boot = small_mixed.take(np.sort(bootstrap_indices(cfg.seed, t, n)))
            solo = CMPSBuilder(
                cfg.with_(seed=member_seed(cfg.seed, t))
            ).build(boot).tree
            assert tree_signature(member) == tree_signature(solo)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=0)
        with pytest.raises(ValueError):
            BaggedForestBuilder(
                ENSEMBLE_CONFIG.with_(checkpoint_path="x.ckpt"), n_trees=2
            )


class TestHistGradientBoosting:
    def test_training_beats_priors_and_is_deterministic(self, small_mixed):
        builder = HistGradientBoostingBuilder(
            ENSEMBLE_CONFIG, n_iterations=4, learning_rate=0.3
        )
        result = builder.build(small_mixed)
        forest = result.forest
        assert forest.n_trees == 4 * small_mixed.n_classes
        acc = float(np.mean(forest.predict(small_mixed.X) == small_mixed.y))
        prior = float(np.max(np.bincount(small_mixed.y)) / small_mixed.n_records)
        assert acc > prior + 0.1
        again = HistGradientBoostingBuilder(
            ENSEMBLE_CONFIG, n_iterations=4, learning_rate=0.3
        ).build(small_mixed)
        assert (
            again.forest.compiled().fingerprint
            == forest.compiled().fingerprint
        )

    @pytest.mark.parametrize(
        "backend,workers", [("thread", 4), ("process", 4)]
    )
    def test_parallel_backends_reproduce_fingerprint(
        self, conformance_matrix, backend, workers
    ):
        engine = engine_of(backend, workers)
        conformance_matrix.check("hist-gbdt", "mixed", engine, f"{engine.label}/")

    def test_proba_rows_sum_to_one(self, small_mixed):
        forest = HistGradientBoostingBuilder(
            ENSEMBLE_CONFIG, n_iterations=2
        ).build(small_mixed).forest
        proba = forest.predict_proba(small_mixed.X[:200])
        np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(proba >= 0.0)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            HistGradientBoostingBuilder(ENSEMBLE_CONFIG, n_iterations=0)
        with pytest.raises(ValueError):
            HistGradientBoostingBuilder(ENSEMBLE_CONFIG, learning_rate=0.0)

    @pytest.mark.parametrize("prune", ["public", "mdl"])
    def test_rejects_pruning(self, prune):
        with pytest.raises(ValueError, match="pruning"):
            HistGradientBoostingBuilder(ENSEMBLE_CONFIG.with_(prune=prune))


class TestPackedForestServing:
    def test_packed_scoring_matches_member_loop(self, small_mixed):
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=3).build(
            small_mixed
        ).forest
        cf = forest.compiled()
        assert isinstance(cf, CompiledForest)
        X = small_mixed.X[:800]
        acc = np.tile(cf.base, (len(X), 1))
        for t, member in enumerate(cf.members):
            acc += cf.values[cf.leaf_row[cf.tree_offsets[t] + member.route(X)]]
        np.testing.assert_array_equal(cf.decision_values(X), acc)

    def test_numpy_fallback_bit_identical(self, small_mixed, tmp_path):
        """The CMP_NO_NATIVE=1 path must score byte-for-byte like native."""
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=2).build(
            small_mixed
        ).forest
        cf = forest.compiled()
        X = small_mixed.X[:300]
        native = cf.decision_values(X)
        xp, np_ = tmp_path / "X.npy", tmp_path / "native.npy"
        np.save(xp, X)
        np.save(np_, native)
        # Rebuild the same forest in a subprocess with the native kernels
        # disabled and compare raw decision values bitwise.
        script = f"""
import numpy as np
from repro.config import BuilderConfig
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.ensemble import BaggedForestBuilder

rng = np.random.default_rng(5)
n = 2_000
X = np.column_stack([
    rng.normal(0.0, 1.0, n),
    rng.uniform(-2.0, 2.0, n),
    rng.integers(0, 4, n).astype(float),
])
y = ((X[:, 0] > 0).astype(np.int64) + (X[:, 2] >= 2)).astype(np.int64)
schema = Schema(
    (continuous("a"), continuous("b"), categorical("c", ("w", "x", "y", "z"))),
    ("c0", "c1", "c2"),
)
ds = Dataset(X, y, schema)
cfg = BuilderConfig(n_intervals=16, max_depth=4, min_records=10,
                    reservoir_capacity=4_000, page_records=64, seed=29)
cf = BaggedForestBuilder(cfg, n_trees=2).build(ds).forest.compiled()
Xq = np.load({str(xp)!r})
native = np.load({str(np_)!r})
from repro.core import native as native_mod
assert native_mod.forest_kernel() is None, "CMP_NO_NATIVE not honoured"
assert np.array_equal(cf.decision_values(Xq), native)
print("FALLBACK_OK")
"""
        env = dict(os.environ, CMP_NO_NATIVE="1")
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (env.get("PYTHONPATH"), "src") if p
        )
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
        assert proc.returncode == 0, proc.stderr
        assert "FALLBACK_OK" in proc.stdout

    def test_apply_returns_member_leaves(self, small_mixed):
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=3).build(
            small_mixed
        ).forest
        leaves = forest.apply(small_mixed.X[:100])
        assert leaves.shape == (100, 3)
        for t, member in enumerate(forest.members):
            np.testing.assert_array_equal(
                leaves[:, t], member.apply(small_mixed.X[:100])
            )

    def test_registry_serves_forest_under_full_fingerprint(self, small_mixed):
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=2).build(
            small_mixed
        ).forest
        registry = ModelRegistry()
        fp = registry.register(forest)
        assert len(fp) == 64
        assert fp == forest.compiled().fingerprint
        X = small_mixed.X[:50]
        np.testing.assert_array_equal(
            registry.get(fp).predict(X), forest.predict(X)
        )
        # Historical truncated keys (and any unique >=8-char prefix) still
        # resolve to the packed forest.
        assert registry.resolve(fp[:16]) == fp
        np.testing.assert_array_equal(
            registry.get(fp[:16]).predict(X), forest.predict(X)
        )

    def test_forest_requires_members(self):
        with pytest.raises(ValueError):
            Forest([])


class TestForestDifferential:
    def test_clean_on_adversarial_dataset(self):
        ds = adversarial_dataset("mixed", n=250, seed=4)
        cfg = BuilderConfig(
            n_intervals=16, max_depth=4, min_records=15, page_records=64, seed=13
        )
        report = run_forest_differential(ds, cfg, n_trees=2, n_iterations=2)
        errors = [f for f in report.findings if f.severity == "error"]
        assert not errors, "\n".join(str(f) for f in errors)
        assert report.ok
        assert len(report.member_stats) == 2
        assert all(g.n_internal >= 0 for g in report.member_stats)

    def test_signatures_detect_member_corruption(self, small_mixed):
        forest = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=2).build(
            small_mixed
        ).forest
        ref = forest_signatures(forest)
        tampered = BaggedForestBuilder(ENSEMBLE_CONFIG, n_trees=2).build(
            small_mixed
        ).forest
        node = next(
            n for n in tampered.members[0].iter_nodes() if not n.is_leaf
        )
        assert isinstance(node.split, NumericSplit) or node.split is not None
        if isinstance(node.split, NumericSplit):
            node.split = NumericSplit(
                node.split.attr, node.split.threshold + 1e9, node.split.n_candidates
            )
        else:
            node.make_leaf()
        assert forest_signatures(tampered) != ref


class TestMajorityFallbackRegression:
    """An all-zero-count node must defer to its parent distribution
    instead of silently predicting class 0 (the old argmax-of-zeros bug)."""

    @staticmethod
    def _tree_with_empty_leaf():
        counts = np.array([2.0, 9.0])
        root = Node(0, 0, counts, split=NumericSplit(0, 0.5, 4))
        root.left = Node(1, 1, np.zeros(2))  # no training record landed here
        root.right = Node(2, 1, counts.copy())
        schema = Schema((continuous("x"),), ("a", "b"))
        return DecisionTree(root, schema)

    def test_empty_leaf_predicts_parent_majority(self):
        tree = self._tree_with_empty_leaf()
        empty = tree.root.left
        assert empty.class_counts.sum() == 0
        np.testing.assert_array_equal(
            empty.effective_counts, tree.root.class_counts
        )
        assert empty.majority_class == 1  # parent majority, not argmax(0)=0
        # The routed prediction agrees with the node-level fallback.
        assert tree.predict(np.array([[0.0]]))[0] == 1

    def test_compiled_tree_matches_fallback(self):
        tree = self._tree_with_empty_leaf()
        compiled = tree.compiled()
        X = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(compiled.predict(X), tree.predict(X))
        # Probabilities come from effective counts, so the empty leaf's row
        # is the parent's distribution rather than NaN or [1, 0].
        proba = compiled.predict_proba(X)
        np.testing.assert_allclose(proba[0], [2 / 11, 9 / 11])

    def test_all_empty_path_stays_deterministic(self):
        root = Node(0, 0, np.zeros(3))
        tree = DecisionTree(root, Schema((continuous("x"),), ("a", "b", "c")))
        assert tree.root.majority_class == 0  # nothing to fall back to


class TestStratifiedCrossValRegression:
    """Unstratified folds can starve a fold of a rare class entirely;
    stratified folds (the new default) must never do that."""

    def _rare_class_labels(self):
        y = np.zeros(200, dtype=np.int64)
        y[:10] = 1  # 5% minority, adversarially clustered at the front
        return y

    def test_every_fold_sees_the_rare_class(self):
        y = self._rare_class_labels()
        rng = np.random.default_rng(0)
        for train, test in stratified_kfold_indices(y, 5, rng):
            assert np.sum(y[test] == 1) == 2  # 10 minority / 5 folds
            assert np.sum(y[train] == 1) == 8

    def test_partition_properties_hold(self):
        y = self._rare_class_labels()
        rng = np.random.default_rng(3)
        folds = stratified_kfold_indices(y, 4, rng)
        all_test = np.concatenate([test for __, test in folds])
        assert sorted(all_test.tolist()) == list(range(200))
        for train, test in folds:
            assert len(train) + len(test) == 200
            assert not set(train.tolist()) & set(test.tolist())

    def test_cross_validate_stratifies_by_default(self, two_blob, fast_config):
        result = cross_validate(
            lambda: CMPSBuilder(fast_config), two_blob, k=4, seed=1
        )
        assert result.n_folds == 4
        assert result.mean > 0.9

    def test_unstratified_opt_out_still_works(self, two_blob, fast_config):
        result = cross_validate(
            lambda: CMPSBuilder(fast_config),
            two_blob,
            k=3,
            seed=2,
            stratify=False,
        )
        assert result.n_folds == 3

    def test_plain_kfold_unchanged(self):
        rng = np.random.default_rng(1)
        folds = kfold_indices(50, 5, rng)
        all_test = np.concatenate([test for __, test in folds])
        assert sorted(all_test.tolist()) == list(range(50))
