"""Tests for versioned rollout (serve/rollout.py) and registry drain
semantics: canary routing, promote/rollback, unregister/lease."""

import threading

import numpy as np
import pytest

from repro.eval.treegen import random_batch, random_tree
from repro.serve import (
    ModelInUseError,
    RolloutManager,
    ServingEngine,
    StuckModel,
)
from repro.serve.rollout import route_fraction


class TestRouteFraction:
    def test_deterministic_and_bounded(self):
        for key in ("user-1", "user-2", ""):
            f = route_fraction("ep", key)
            assert 0.0 <= f < 1.0
            assert route_fraction("ep", key) == f

    def test_endpoint_independence(self):
        # One key's canary membership differs across endpoints.
        keys = [f"k{i}" for i in range(200)]
        a = [route_fraction("ep-a", k) < 0.5 for k in keys]
        b = [route_fraction("ep-b", k) < 0.5 for k in keys]
        assert a != b

    def test_fraction_converges_to_weight(self):
        keys = [f"user-{i}" for i in range(2000)]
        hits = sum(route_fraction("ep", k) < 0.25 for k in keys)
        assert 0.20 < hits / len(keys) < 0.30


class TestRolloutManager:
    def test_deploy_and_resolve_stable_only(self):
        mgr = RolloutManager()
        mgr.deploy("scoring", "aaa")
        assert mgr.resolve("scoring") == "aaa"
        assert mgr.resolve("scoring", route_key="u1") == "aaa"
        snap = mgr.endpoints()[0]
        assert snap["stable"] == "aaa" and snap["stable_routes"] == 2

    def test_weight_extremes(self):
        mgr = RolloutManager()
        mgr.deploy("ep", "stable")
        mgr.set_canary("ep", "canary", weight=0.0)
        assert all(mgr.resolve("ep", f"k{i}") == "stable" for i in range(50))
        mgr.set_canary("ep", "canary", weight=1.0)
        assert all(mgr.resolve("ep", f"k{i}") == "canary" for i in range(50))

    def test_sticky_keyed_routing(self):
        mgr = RolloutManager()
        mgr.deploy("ep", "stable")
        mgr.set_canary("ep", "canary", weight=0.3)
        first = {k: mgr.resolve("ep", k) for k in (f"u{i}" for i in range(100))}
        for k, v in first.items():
            assert mgr.resolve("ep", k) == v  # same key, same version
        assert set(first.values()) == {"stable", "canary"}

    def test_keyless_routing_is_deterministic(self):
        def draw():
            mgr = RolloutManager()
            mgr.deploy("ep", "stable")
            mgr.set_canary("ep", "canary", weight=0.4)
            return [mgr.resolve("ep") for _ in range(64)]

        first, second = draw(), draw()
        assert first == second
        assert set(first) == {"stable", "canary"}

    def test_promote_flips_atomically(self):
        mgr = RolloutManager()
        mgr.deploy("ep", "v1")
        mgr.set_canary("ep", "v2", weight=0.5)
        assert mgr.promote("ep") == "v1"
        snap = mgr.endpoints()[0]
        assert snap["stable"] == "v2"
        assert snap["canary"] is None and snap["canary_weight"] == 0.0
        assert mgr.resolve("ep", "any") == "v2"

    def test_rollback_drops_canary(self):
        mgr = RolloutManager()
        mgr.deploy("ep", "v1")
        mgr.set_canary("ep", "v2", weight=0.9)
        assert mgr.rollback("ep") == "v2"
        assert all(mgr.resolve("ep", f"k{i}") == "v1" for i in range(20))

    def test_error_cases(self):
        mgr = RolloutManager()
        with pytest.raises(ValueError):
            mgr.deploy("", "v1")
        mgr.deploy("ep", "v1")
        with pytest.raises(ValueError):
            mgr.set_canary("ep", "v2", weight=1.5)
        with pytest.raises(ValueError):
            mgr.promote("ep")  # no canary
        with pytest.raises(ValueError):
            mgr.rollback("ep")
        with pytest.raises(KeyError):
            mgr.resolve("missing")
        with pytest.raises(KeyError):
            mgr.remove_endpoint("missing")

    def test_deploy_repoint_keeps_canary(self):
        mgr = RolloutManager()
        mgr.deploy("ep", "v1")
        mgr.set_canary("ep", "v2", weight=0.5)
        mgr.deploy("ep", "v3")
        snap = mgr.endpoints()[0]
        assert snap["stable"] == "v3" and snap["canary"] == "v2"

    def test_routes_to(self):
        mgr = RolloutManager()
        mgr.deploy("a", "v1")
        mgr.deploy("b", "v1")
        mgr.set_canary("b", "v2", weight=0.1)
        assert sorted(mgr.routes_to("v1")) == ["a", "b"]
        assert mgr.routes_to("v2") == ["b"]
        assert mgr.routes_to("v3") == []
        mgr.remove_endpoint("a")
        assert mgr.routes_to("v1") == ["b"]


def _two_model_engine(**kwargs):
    engine = ServingEngine(**kwargs)
    # Same generator defaults -> same record width; predictions differ.
    stable_tree = random_tree(depth=4, seed=50)
    canary_tree = random_tree(depth=4, seed=51)
    stable = engine.registry.register(stable_tree)
    canary = engine.registry.register(canary_tree)
    return engine, stable_tree, canary_tree, stable, canary


class TestRegistryEndpoints:
    def test_endpoints_require_registered_models(self):
        engine = ServingEngine()
        with pytest.raises(KeyError):
            engine.registry.deploy("ep", "nope")
        tree = random_tree(depth=3, seed=52)
        key = engine.registry.register(tree)
        engine.registry.deploy("ep", key)
        with pytest.raises(KeyError):
            engine.registry.set_canary("ep", "nope", weight=0.5)

    def test_endpoint_serving_end_to_end(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("scoring", stable)
        X = random_batch(stable_tree.schema, 100, seed=60)
        np.testing.assert_array_equal(
            engine.predict("scoring", X), stable_tree.predict(X)
        )
        # Full-weight canary: every request lands on the canary model.
        engine.registry.set_canary("scoring", canary, weight=1.0)
        np.testing.assert_array_equal(
            engine.predict("scoring", X), canary_tree.predict(X)
        )
        # Rollback is instant.
        engine.registry.rollback("scoring")
        np.testing.assert_array_equal(
            engine.predict("scoring", X), stable_tree.predict(X)
        )

    def test_sticky_route_key_end_to_end(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        engine.registry.set_canary("ep", canary, weight=0.5)
        X = random_batch(stable_tree.schema, 40, seed=61)
        expected = {
            key: (
                canary_tree.predict(X)
                if route_fraction("ep", key) < 0.5
                else stable_tree.predict(X)
            )
            for key in ("alice", "bob", "carol", "dave")
        }
        for key, want in expected.items():
            for _ in range(3):  # replays land on the same version
                np.testing.assert_array_equal(
                    engine.predict("ep", X, route_key=key), want
                )

    def test_promote_then_unregister_old_stable(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        engine.registry.set_canary("ep", canary, weight=0.2)
        with pytest.raises(ModelInUseError):
            engine.registry.unregister(stable)
        old = engine.registry.promote("ep")
        assert old == stable
        assert engine.registry.unregister(stable) is True
        assert stable not in engine.registry
        X = random_batch(stable_tree.schema, 30, seed=62)
        np.testing.assert_array_equal(
            engine.predict("ep", X), canary_tree.predict(X)
        )

    def test_resolve_prefers_endpoint_name(self):
        engine, stable_tree, _, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        assert engine.registry.resolve("ep") == stable
        assert engine.registry.resolve(canary) == canary
        with pytest.raises(KeyError):
            engine.registry.resolve("missing")


class TestUnregisterDrain:
    def test_unregister_unknown_raises(self):
        engine = ServingEngine()
        with pytest.raises(KeyError):
            engine.registry.unregister("nope")

    def test_unregister_idle_model_is_immediate(self):
        engine, _, _, stable, canary = _two_model_engine()
        assert engine.registry.unregister(canary) is True
        assert canary not in engine.registry

    def test_unregister_defers_while_request_in_flight(self):
        tree = random_tree(depth=4, seed=53)
        stuck = StuckModel(tree.compiled())
        engine = ServingEngine()
        key = engine.registry.register(stuck)
        X = random_batch(tree.schema, 8, seed=63)

        done = []
        t = threading.Thread(target=lambda: done.append(engine.predict(key, X)))
        t.start()
        try:
            assert stuck.entered.wait(5.0)
            assert engine.registry.inflight(key) == 1
            # Removal defers: the in-flight lease pins the model.
            assert engine.registry.unregister(key) is False
            assert key in engine.registry
            # Draining: new requests are refused like an unknown model.
            with pytest.raises(KeyError, match="draining"):
                engine.predict(key, X)
        finally:
            stuck.release.set()
            t.join(5.0)
        # The last lease dropped the entry on release.
        assert key not in engine.registry
        assert engine.registry.inflight(key) == 0
        assert len(done) == 1
        np.testing.assert_array_equal(done[0], tree.predict(X))

    def test_reregister_clears_pending_removal(self):
        tree = random_tree(depth=4, seed=54)
        stuck = StuckModel(tree.compiled())
        engine = ServingEngine()
        key = engine.registry.register(stuck)
        X = random_batch(tree.schema, 8, seed=64)
        t = threading.Thread(target=lambda: engine.predict(key, X))
        t.start()
        try:
            assert stuck.entered.wait(5.0)
            assert engine.registry.unregister(key) is False
            # Re-registering the same fingerprint cancels the removal.
            assert engine.registry.register(stuck) == key
        finally:
            stuck.release.set()
            t.join(5.0)
        assert key in engine.registry

    def test_hot_swap_right_after_resolve_keeps_request_alive(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        X = random_batch(stable_tree.schema, 50, seed=66)
        registry = engine.registry
        resolve_route = registry.resolve_route

        def resolve_then_swap(*args, **kwargs):
            out = resolve_route(*args, **kwargs)
            registry.hot_swap("ep", canary_tree)
            return out

        registry.resolve_route = resolve_then_swap
        np.testing.assert_array_equal(
            engine.predict("ep", X), stable_tree.predict(X)
        )

    def test_hot_swap_before_execution_drains_the_leased_model(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        X = random_batch(stable_tree.schema, 50, seed=67)
        validate = engine._validate_batch

        def validate_then_swap(fingerprint, model, batch):
            validate(fingerprint, model, batch)
            engine.registry.hot_swap("ep", canary_tree)

        engine._validate_batch = validate_then_swap
        # The request resolved the old stable; the swap waits for its lease.
        np.testing.assert_array_equal(
            engine.predict("ep", X), stable_tree.predict(X)
        )
        assert stable not in engine.registry
        assert engine.registry.resolve("ep") == canary

    def test_hot_swap_under_concurrent_traffic(self):
        engine, stable_tree, canary_tree, stable, canary = _two_model_engine()
        engine.registry.deploy("ep", stable)
        X = random_batch(stable_tree.schema, 50, seed=65)
        want_stable = stable_tree.predict(X)
        want_canary = canary_tree.predict(X)

        stop = threading.Event()
        errors = []
        checked = [0]

        def client():
            while not stop.is_set():
                try:
                    out = engine.predict("ep", X)
                except Exception as exc:  # noqa: BLE001 - test harness
                    errors.append(exc)
                    return
                if not (
                    np.array_equal(out, want_stable)
                    or np.array_equal(out, want_canary)
                ):
                    errors.append(AssertionError("mixed-version response"))
                    return
                checked[0] += 1

        threads = [threading.Thread(target=client) for _ in range(4)]
        for t in threads:
            t.start()
        try:
            # Churn the rollout while traffic flows: canary up, promote,
            # roll a new canary (the old stable), roll it back.
            for _ in range(15):
                engine.registry.set_canary("ep", canary, weight=0.5)
                engine.registry.promote("ep")
                engine.registry.set_canary("ep", stable, weight=0.5)
                engine.registry.rollback("ep")
                engine.registry.deploy("ep", stable)
        finally:
            stop.set()
            for t in threads:
                t.join(5.0)
        assert not errors
        assert checked[0] > 0
