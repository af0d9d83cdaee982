"""Zero-downtime sliding-window hot-swap under sustained serving traffic.

The refresher's background trainer must flip the endpoint's stable
pointer N times while clients hammer the engine, with zero request
errors, no responses from fingerprints that were never promoted, and a
monotone model version per sticky route key.
"""

from __future__ import annotations

import sys
import threading
import time

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.data.synthetic import generate_drift
from repro.obs.access import AccessLog
from repro.serve.engine import ModelRegistry, ServingEngine
from repro.stream import SlidingWindowRefresher, StreamingTrainer

CFG = BuilderConfig(n_intervals=24, max_depth=6, min_records=20)


def _drift_stream():
    return generate_drift((("F2", 6_000), ("F5", 6_000), ("F7", 6_000)), seed=3)


class TestHotSwapUnderTraffic:
    def test_zero_downtime_refresh(self):
        data = _drift_stream()
        registry = ModelRegistry()
        access_log = AccessLog()
        refresher = SlidingWindowRefresher(
            registry,
            "live",
            data.schema,
            window_records=3_000,
            refresh_every=1_200,
            config=CFG,
        )
        # Prime the endpoint before opening traffic.
        assert refresher.observe(data.X[:1500], data.y[:1500]) is True
        assert len(refresher.history) == 1

        stop = threading.Event()
        client_errors: list[BaseException] = []
        Xq = data.X[:32]

        def client(key: str) -> None:
            while not stop.is_set():
                try:
                    out = engine.predict("live", Xq, route_key=key)
                    assert len(out) == len(Xq)
                except BaseException as exc:  # noqa: BLE001 - collected for assert
                    client_errors.append(exc)
                    return

        with ServingEngine(registry, access_log=access_log) as engine:
            threads = [
                threading.Thread(target=client, args=(f"client-{i}",), daemon=True)
                for i in range(4)
            ]
            # The refresher wins the GIL back from four busy clients after
            # every call that drops it: at the default 5 ms switch interval
            # a 0.06 s refresh takes seconds.  0.5 ms changes only the wait.
            interval = sys.getswitchinterval()
            sys.setswitchinterval(0.0005)
            refresher.start()
            try:
                for t in threads:
                    t.start()
                # The worker coalesces wake signals (a refresh fits the
                # newest window), so after each chunk that makes a
                # refresh due, wait for that refresh to land; stop once
                # four have.
                fed, due = 0, 0
                for lo in range(1_500, data.n_records, 500):
                    refresher.observe(data.X[lo : lo + 500], data.y[lo : lo + 500])
                    fed += len(data.y[lo : lo + 500])
                    if fed < refresher.refresh_every:
                        continue
                    fed, due = 0, due + 1
                    deadline = time.monotonic() + 30.0
                    while len(refresher.history) < 1 + due:
                        assert time.monotonic() < deadline, "a due refresh never landed"
                        time.sleep(0.002)
                    if due == 4:
                        break
                background = len(refresher.history) - 1
            finally:
                refresher.stop(final_refresh=True)
                stop.set()
                for t in threads:
                    t.join(timeout=10.0)
                sys.setswitchinterval(interval)

        history = refresher.history
        assert background >= 4, "expected several background refreshes"
        assert not client_errors, f"client saw errors: {client_errors[:3]}"

        records = access_log.records()
        assert records, "traffic should have been logged"
        bad = [r for r in records if r.outcome != "ok"]
        assert not bad, f"non-ok outcomes: {[(r.outcome, r.error) for r in bad[:3]]}"

        # Every served fingerprint was promoted at some point — nothing
        # stale, nothing that bypassed the rollout path.
        promoted = {e.fingerprint for e in history}
        served = {r.fingerprint for r in records}
        assert served <= promoted

        # Monotone model version per sticky route key: each client issues
        # requests sequentially, so its log order is its issue order.
        version_of = {}
        for e in history:
            version_of[e.fingerprint] = max(
                e.version, version_of.get(e.fingerprint, 0)
            )
        versions = [e.version for e in history]
        assert versions == sorted(versions), "endpoint version must be monotone"
        by_key: dict[str, list[int]] = {}
        for r in records:
            assert r.route_key is not None
            by_key.setdefault(r.route_key, []).append(version_of[r.fingerprint])
        assert set(by_key) == {f"client-{i}" for i in range(4)}
        for key, seq in by_key.items():
            assert seq == sorted(seq), f"version went backwards for {key}"

        # Drain-aware retirement: displaced models are unregistered once
        # their last in-flight lease completes, so with traffic stopped
        # the registry converges to exactly the live model.
        assert registry.endpoint_version("live") == history[-1].version
        final = history[-1].fingerprint
        assert final in registry
        assert len(registry) == 1

    def test_window_trim_and_refresh_accounting(self):
        data = _drift_stream()
        registry = ModelRegistry()
        refresher = SlidingWindowRefresher(
            registry,
            "live",
            data.schema,
            window_records=2_000,
            refresh_every=1_000,
            config=CFG,
        )
        n_refreshes = 0
        for lo in range(0, 8_000, 400):
            if refresher.observe(data.X[lo : lo + 400], data.y[lo : lo + 400]):
                n_refreshes += 1
            assert refresher.window_size <= 2_000
        # A refresh fires on the first chunk that crosses refresh_every,
        # i.e. every ceil(1000/400)=3 chunks: 20 chunks -> 6 refreshes.
        assert n_refreshes == len(refresher.history) == 6
        assert all(e.window_records <= 2_000 for e in refresher.history)
        assert [e.seq for e in refresher.history] == list(range(1, 7))

    def test_hot_swap_same_model_is_noop(self):
        data = _drift_stream()
        registry = ModelRegistry()
        tree = StreamingTrainer(data.schema, CFG).fit_stream(
            iter([(data.X[:2000], data.y[:2000])])
        ).tree
        fp1 = registry.hot_swap("ep", tree)
        v1 = registry.endpoint_version("ep")
        fp2 = registry.hot_swap("ep", tree)
        assert fp1 == fp2
        assert registry.endpoint_version("ep") == v1
        assert len(registry) == 1

    def test_hot_swap_bumps_version_per_distinct_model(self):
        data = _drift_stream()
        registry = ModelRegistry()
        fps, versions = [], []
        for lo in (0, 6_000, 12_000):
            tree = StreamingTrainer(data.schema, CFG).fit_stream(
                iter([(data.X[lo : lo + 2_000], data.y[lo : lo + 2_000])])
            ).tree
            fps.append(registry.hot_swap("ep", tree))
            versions.append(registry.endpoint_version("ep"))
        assert len(set(fps)) == 3
        assert versions == [versions[0], versions[0] + 1, versions[0] + 2]
        # Undisturbed retirement: only the live model remains.
        assert len(registry) == 1
        assert fps[-1] in registry
