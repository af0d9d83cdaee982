"""Tests for the serving layer (serve/engine.py, serve/batcher.py)."""

import time

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.io.metrics import ServingStats
from repro.eval.treegen import random_batch, random_tree
from repro.serve import (
    DeadlineExceeded,
    MicroBatcher,
    ModelRegistry,
    Overloaded,
    ServingEngine,
    StuckModel,
)


class TestServingStats:
    def test_observe_and_snapshot(self):
        s = ServingStats()
        s.count("requests", 3)
        s.observe_batch(10, 0.5)
        s.observe_batch(30, 1.5)
        snap = s.snapshot()
        assert snap["requests"] == 3
        assert snap["batches"] == 2
        assert snap["records"] == 40
        assert snap["mean_batch"] == 20
        assert snap["min_batch"] == 10 and snap["max_batch"] == 30
        assert snap["mean_latency_ms"] == pytest.approx(1000.0)
        assert snap["records_per_s"] == pytest.approx(20.0)
        assert snap["max_latency_s"] == pytest.approx(1.5)

    def test_empty_snapshot_has_no_nans(self):
        snap = ServingStats().snapshot()
        assert snap["mean_batch"] == 0.0
        assert snap["records_per_s"] == 0.0

    def test_rejects_negative(self):
        s = ServingStats()
        with pytest.raises(ValueError):
            s.observe_batch(-1, 0.0)
        with pytest.raises(ValueError):
            s.observe_batch(1, -0.1)
        with pytest.raises(ValueError):
            s.count("requests", -2)

    def test_merge_from(self):
        a, b = ServingStats(), ServingStats()
        a.observe_batch(5, 0.1)
        b.observe_batch(15, 0.3)
        b.count("requests", 2)
        a.merge_from(b)
        snap = a.snapshot()
        assert snap["records"] == 20
        assert snap["requests"] == 2
        assert snap["min_batch"] == 5 and snap["max_batch"] == 15

    def test_zero_record_batch_is_a_real_minimum(self):
        # Regression: the old ``min_batch == 0`` sentinel meant a genuine
        # empty batch was indistinguishable from "never observed" and a
        # later nonzero batch would overwrite it.
        s = ServingStats()
        s.observe_batch(0, 0.001)
        s.observe_batch(25, 0.002)
        snap = s.snapshot()
        assert snap["min_batch"] == 0
        assert snap["max_batch"] == 25
        assert s.batch_observed

    def test_merge_honors_observed_flag(self):
        # Merging an empty block must not drag min_batch down to 0...
        a, b = ServingStats(), ServingStats()
        a.observe_batch(5, 0.1)
        a.merge_from(b)
        assert a.snapshot()["min_batch"] == 5
        # ...while merging a block whose true minimum IS 0 must.
        c = ServingStats()
        c.observe_batch(0, 0.1)
        a.merge_from(c)
        assert a.snapshot()["min_batch"] == 0
        # And merging into a never-observed block adopts the other side.
        d = ServingStats()
        d.merge_from(a)
        assert d.snapshot()["min_batch"] == 0
        assert d.batch_observed

    def test_snapshot_reports_latency_percentiles(self):
        s = ServingStats()
        empty = s.snapshot()
        assert empty["p50_latency_ms"] == 0.0
        for ms in (1.0, 2.0, 4.0, 8.0, 100.0):
            s.observe_batch(1, ms / 1000.0)
        snap = s.snapshot()
        assert 0.0 < snap["p50_latency_ms"] <= snap["p90_latency_ms"]
        assert snap["p90_latency_ms"] <= snap["p99_latency_ms"]
        assert snap["p99_latency_ms"] <= 1000.0 * snap["max_latency_s"] * 2

    def test_merge_folds_latency_histograms(self):
        a, b = ServingStats(), ServingStats()
        for __ in range(10):
            a.observe_batch(1, 0.001)
            b.observe_batch(1, 0.1)
        a.merge_from(b)
        assert a.latency.count == 20
        # Median sits between the two clusters after the merge.
        assert 0.001 < a.latency.quantile(0.5) < 0.1


class TestModelRegistry:
    def test_register_is_idempotent(self):
        reg = ModelRegistry()
        t = random_tree(depth=4, seed=0)
        key = reg.register(t)
        assert reg.register(t) == key
        assert len(reg) == 1
        assert key in reg
        assert reg.fingerprints() == [key]

    def test_round_tripped_tree_maps_to_same_model(self):
        from repro.core.serialize import tree_from_json, tree_to_json

        reg = ModelRegistry()
        t = random_tree(depth=4, seed=1)
        key = reg.register(t)
        assert reg.register(tree_from_json(tree_to_json(t))) == key

    def test_distinct_trees_distinct_keys(self):
        reg = ModelRegistry()
        k1 = reg.register(random_tree(depth=3, seed=2))
        k2 = reg.register(random_tree(depth=3, seed=3))
        assert k1 != k2 and len(reg) == 2

    def test_unknown_fingerprint_raises(self):
        reg = ModelRegistry()
        with pytest.raises(KeyError, match="no model registered"):
            reg.get("deadbeef")
        with pytest.raises(KeyError, match="no model registered"):
            reg.stats("deadbeef")


class TestServingEngine:
    def test_matches_tree_predictions(self):
        t = random_tree(depth=6, seed=4)
        X = random_batch(t.schema, 3000, seed=5, unseen_frac=0.05)
        engine = ServingEngine()
        key = engine.registry.register(t)
        np.testing.assert_array_equal(engine.predict(key, X), t.predict(X))
        np.testing.assert_array_equal(engine.predict_proba(key, X), t.predict_proba(X))
        np.testing.assert_array_equal(engine.apply(key, X), t.apply(X))

    def test_sharded_output_identical_to_serial(self):
        t = random_tree(depth=6, seed=6)
        X = random_batch(t.schema, 5000, seed=7)
        serial = ServingEngine()
        sharded = ServingEngine(workers=4, min_shard_rows=100)
        k1 = serial.registry.register(t)
        k2 = sharded.registry.register(t)
        assert k1 == k2
        with serial, sharded:
            np.testing.assert_array_equal(
                sharded.predict(k2, X), serial.predict(k1, X)
            )
            np.testing.assert_array_equal(
                sharded.predict_proba(k2, X), serial.predict_proba(k1, X)
            )

    def test_stats_accumulate(self):
        t = random_tree(depth=4, seed=8)
        engine = ServingEngine()
        key = engine.registry.register(t)
        X = random_batch(t.schema, 100, seed=9)
        engine.predict(key, X)
        engine.predict(key, X[:40])
        snap = engine.registry.stats(key).snapshot()
        assert snap["batches"] == 2
        assert snap["records"] == 140
        assert snap["min_batch"] == 40 and snap["max_batch"] == 100
        assert snap["busy_seconds"] > 0

    def test_empty_batch(self):
        t = random_tree(depth=4, seed=10)
        engine = ServingEngine()
        key = engine.registry.register(t)
        p = t.schema.n_attributes
        assert engine.predict(key, np.empty((0, p))).shape == (0,)
        proba = engine.predict_proba(key, np.empty((0, p)))
        assert proba.shape == (0, t.schema.n_classes)

    def test_rejects_bad_config(self):
        with pytest.raises(ValueError):
            ServingEngine(workers=0)
        with pytest.raises(ValueError):
            ServingEngine(min_shard_rows=0)


class TestMicroBatcher:
    def test_single_requests_get_batched_answers(self):
        t = random_tree(depth=5, seed=11)
        X = random_batch(t.schema, 64, seed=12)
        engine = ServingEngine()
        key = engine.registry.register(t)
        expected = t.predict(X)
        with MicroBatcher(engine, key, max_batch=16, max_delay_s=0.01) as mb:
            futures = [mb.submit(row) for row in X]
            got = np.array([f.result(timeout=10) for f in futures])
        np.testing.assert_array_equal(got, expected)
        snap = engine.registry.stats(key).snapshot()
        assert snap["requests"] == 64
        # Coalescing must have produced fewer engine calls than requests.
        assert snap["batches"] < 64

    def test_predict_proba_mode(self):
        t = random_tree(depth=4, seed=13)
        X = random_batch(t.schema, 8, seed=14)
        engine = ServingEngine()
        key = engine.registry.register(t)
        with MicroBatcher(engine, key, method="predict_proba", max_batch=4) as mb:
            rows = [mb.submit(row).result(timeout=10) for row in X]
        np.testing.assert_array_equal(np.vstack(rows), t.predict_proba(X))

    def test_close_flushes_pending(self):
        t = random_tree(depth=3, seed=15)
        X = random_batch(t.schema, 3, seed=16)
        engine = ServingEngine()
        key = engine.registry.register(t)
        mb = MicroBatcher(engine, key, max_batch=1000, max_delay_s=30.0)
        futures = [mb.submit(row) for row in X]
        mb.close()  # must not leave futures pending despite the huge window
        got = np.array([f.result(timeout=1) for f in futures])
        np.testing.assert_array_equal(got, t.predict(X))

    def test_submit_after_close_raises(self):
        t = random_tree(depth=3, seed=17)
        engine = ServingEngine()
        key = engine.registry.register(t)
        mb = MicroBatcher(engine, key)
        mb.close()
        with pytest.raises(RuntimeError, match="closed"):
            mb.submit(np.zeros(t.schema.n_attributes))

    def test_engine_failure_propagates_to_futures(self):
        t = random_tree(depth=3, seed=18)
        engine = ServingEngine()
        key = engine.registry.register(t)
        with MicroBatcher(engine, key, max_batch=2, max_delay_s=1.0) as mb:
            # Mismatched row widths cannot be stacked into one batch; the
            # failure must resolve both futures, not kill the flush thread.
            f1 = mb.submit(np.zeros(t.schema.n_attributes))
            f2 = mb.submit(np.zeros(t.schema.n_attributes + 3))
            with pytest.raises(ValueError):
                f1.result(timeout=10)
            with pytest.raises(ValueError):
                f2.result(timeout=10)
            # The batcher still serves follow-up requests afterwards.
            f3 = mb.submit(np.zeros(t.schema.n_attributes))
            f4 = mb.submit(np.zeros(t.schema.n_attributes))
            assert f3.result(timeout=10) == f4.result(timeout=10)

    def test_rejects_bad_config(self):
        t = random_tree(depth=3, seed=19)
        engine = ServingEngine()
        key = engine.registry.register(t)
        with pytest.raises(ValueError, match="unknown engine method"):
            MicroBatcher(engine, key, method="nope")
        with pytest.raises(KeyError):
            MicroBatcher(engine, "missing")
        with pytest.raises(ValueError):
            MicroBatcher(engine, key, max_batch=0)
        with pytest.raises(ValueError):
            MicroBatcher(engine, key, max_delay_s=0.0)


class TestMicroBatcherDeadlines:
    def test_deadline_shorter_than_flush_window(self):
        # The flush thread must wake at the deadline, not the window end:
        # a 5 ms budget under a 10 s window fails fast, without an engine
        # call (the batch had no survivors).
        t = random_tree(depth=3, seed=70)
        engine = ServingEngine()
        key = engine.registry.register(t)
        with MicroBatcher(engine, key, max_delay_s=10.0) as b:
            f = b.submit(random_batch(t.schema, 1, seed=0)[0], deadline_s=0.005)
            with pytest.raises(DeadlineExceeded, match="before execution"):
                f.result(timeout=5.0)
        snap = engine.registry.stats(key).snapshot()
        assert snap["timeouts"] == 1
        assert snap["batches"] == 0  # predict was never called

    def test_all_expired_batch_skips_predict(self, monkeypatch):
        # Each request's 5 ms budget runs from its own submit, and the
        # flush thread acts at the earliest expiry.  It is held off until
        # every budget has lapsed, so no later submit can be executed
        # before its own expiry, however the submits are spread.
        t = random_tree(depth=3, seed=71)
        engine = ServingEngine()
        key = engine.registry.register(t)
        X = random_batch(t.schema, 3, seed=1)
        with MicroBatcher(
            engine, key, max_delay_s=10.0, default_deadline_s=0.005
        ) as b:
            wake_at = b._wake_at
            monkeypatch.setattr(b, "_wake_at", lambda: time.perf_counter() + 60.0)
            futures = [b.submit(row) for row in X]
            time.sleep(0.01)
            with b._wake:
                monkeypatch.setattr(b, "_wake_at", wake_at)
                b._wake.notify()
            for f in futures:
                with pytest.raises(DeadlineExceeded):
                    f.result(timeout=5.0)
        snap = engine.registry.stats(key).snapshot()
        assert snap["timeouts"] == 3
        assert snap["batches"] == 0 and snap["records"] == 0

    def test_deadline_expires_mid_execution(self):
        # The batch starts executing inside the budget but finishes past
        # it: the caller gets DeadlineExceeded, never a late answer.
        t = random_tree(depth=3, seed=72)
        stuck = StuckModel(t.compiled())
        engine = ServingEngine()
        key = engine.registry.register(stuck)
        with MicroBatcher(engine, key, max_delay_s=0.001) as b:
            f = b.submit(random_batch(t.schema, 1, seed=2)[0], deadline_s=0.2)
            assert stuck.entered.wait(5.0)  # execution began in time
            time.sleep(0.25)  # ...and the budget lapsed while stuck
            stuck.release.set()
            with pytest.raises(DeadlineExceeded, match="while its batch"):
                f.result(timeout=5.0)
        assert engine.registry.stats(key).snapshot()["timeouts"] == 1

    def test_mixed_batch_only_expired_requests_fail(self):
        t = random_tree(depth=3, seed=73)
        engine = ServingEngine()
        key = engine.registry.register(t)
        X = random_batch(t.schema, 2, seed=3)
        with MicroBatcher(engine, key, max_delay_s=0.05) as b:
            doomed = b.submit(X[0], deadline_s=0.005)
            healthy = b.submit(X[1])  # no deadline
            with pytest.raises(DeadlineExceeded):
                doomed.result(timeout=5.0)
            assert healthy.result(timeout=5.0) == t.predict(X[1:2])[0]
        snap = engine.registry.stats(key).snapshot()
        assert snap["timeouts"] == 1 and snap["records"] == 1

    def test_rejects_bad_deadline_config(self):
        t = random_tree(depth=3, seed=74)
        engine = ServingEngine()
        key = engine.registry.register(t)
        with pytest.raises(ValueError):
            MicroBatcher(engine, key, default_deadline_s=0.0)
        with MicroBatcher(engine, key) as b:
            with pytest.raises(ValueError):
                b.submit(np.zeros(t.schema.n_attributes), deadline_s=-1.0)


class TestMicroBatcherAdmission:
    def test_max_pending_sheds_with_overloaded(self):
        t = random_tree(depth=3, seed=75)
        stuck = StuckModel(t.compiled())
        engine = ServingEngine()
        key = engine.registry.register(stuck)
        X = random_batch(t.schema, 4, seed=4)
        b = MicroBatcher(engine, key, max_delay_s=0.001, max_pending=2)
        try:
            first = b.submit(X[0])
            assert stuck.entered.wait(5.0)  # flush thread is now occupied
            # The queue refills behind the stuck batch...
            pending = [b.submit(X[1]), b.submit(X[2])]
            # ...and the bound sheds the next arrival immediately.
            with pytest.raises(Overloaded):
                b.submit(X[3])
            assert engine.registry.stats(key).snapshot()["shed"] == 1
            stuck.release.set()
            for f in [first, *pending]:
                f.result(timeout=5.0)
        finally:
            stuck.release.set()
            b.close()

    def test_serving_stats_new_counters_roundtrip(self):
        s = ServingStats()
        s.count("shed", 2)
        s.count("timeouts")
        s.count("breaker_rejections", 3)
        s.count("fallbacks")
        s.count("shard_retries", 4)
        other = ServingStats()
        other.count("shed")
        other.merge_from(s)
        snap = other.snapshot()
        assert snap["shed"] == 3
        assert snap["timeouts"] == 1
        assert snap["breaker_rejections"] == 3
        assert snap["fallbacks"] == 1
        assert snap["shard_retries"] == 4


class TestServeBenchCLI:
    def test_smoke(self, capsys):
        rc = cli_main(
            [
                "serve-bench",
                "--records", "2000",
                "--depth", "5",
                "--batch", "500",
                "--serve-workers", "2",
            ]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "bit_identical" in out
        assert "True" in out
