"""Property tests for the streaming quantile / heavy-hitter sketches.

The rank-error guarantee must hold on *adversarial* stream orders, not
just i.i.d. data: sorted and reversed streams maximize compaction skew,
duplicate-heavy streams stress tied values, and NaN-laced streams must
not poison ranks.  Merge must be associative and commutative within the
summed error bounds, and serialization must round-trip exactly.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.stream.sketch import HeavyHitterSketch, QuantileSketch

EPS_TARGET = 0.02


def _exact_rank(values: np.ndarray, thresholds: np.ndarray) -> np.ndarray:
    finite = values[~np.isnan(values)]
    return np.array([(finite <= t).sum() for t in thresholds], dtype=np.float64)


def _adversarial_streams(rng: np.random.Generator) -> dict[str, np.ndarray]:
    base = rng.normal(0.0, 10.0, 40_000)
    dup = np.repeat(rng.normal(size=400), 100)
    rng.shuffle(dup)
    nan_laced = base.copy()
    nan_laced[rng.random(len(base)) < 0.05] = np.nan
    return {
        "sorted": np.sort(base),
        "reversed": np.sort(base)[::-1],
        "duplicate_heavy": dup,
        "nan_laced": nan_laced,
        "shuffled": rng.permutation(base),
    }


class TestQuantileSketchRankError:
    @pytest.mark.parametrize(
        "order", ["sorted", "reversed", "duplicate_heavy", "nan_laced", "shuffled"]
    )
    def test_rank_error_within_bound_and_eps(self, rng, order):
        values = _adversarial_streams(rng)[order]
        sk = QuantileSketch(eps=EPS_TARGET)
        # Feed in uneven batch sizes to exercise mid-batch cascades.
        i = 0
        for size in (1, 7, 100, 1000, 10**9):
            sk.extend(values[i : i + size])
            i += size
            if i >= len(values):
                break
        finite = values[~np.isnan(values)]
        n = len(finite)
        assert sk.n_seen == n
        thresholds = np.quantile(finite, np.linspace(0.0, 1.0, 41))
        err = np.abs(sk.rank(thresholds) - _exact_rank(values, thresholds))
        assert err.max() <= sk.rank_error_bound()
        assert sk.rank_error_bound() <= EPS_TARGET * n

    def test_weight_conservation(self, rng):
        values = rng.normal(size=12_345)
        sk = QuantileSketch(eps=0.05)
        sk.extend(values)
        _, w = sk._weighted_items()
        assert w.sum() == sk.n_seen

    def test_nan_counted_not_ranked(self, rng):
        sk = QuantileSketch(eps=0.1)
        sk.extend(np.array([np.nan, 1.0, np.nan, 2.0]))
        assert sk.n_seen == 2
        assert sk.n_nan == 2
        assert sk.rank(np.array([5.0]))[0] == 2.0

    def test_min_max_exact(self, rng):
        values = rng.normal(size=30_000)
        sk = QuantileSketch(eps=0.01)
        sk.extend(values)
        assert sk.vmin == values.min()
        assert sk.vmax == values.max()

    def test_edges_are_realizable_splits(self, rng):
        values = rng.normal(size=20_000)
        sk = QuantileSketch(eps=0.02)
        sk.extend(values)
        edges = sk.edges(16)
        assert np.all(np.diff(edges) > 0)
        assert np.all(edges < values.max())
        # Every edge is an actual retained data value.
        assert np.all(np.isin(edges, values))


class TestQuantileSketchMerge:
    def test_merge_matches_one_shot_within_eps(self, rng):
        a_vals = rng.normal(0, 1, 15_000)
        b_vals = rng.normal(3, 2, 25_000)
        both = np.concatenate([a_vals, b_vals])
        a = QuantileSketch(eps=EPS_TARGET)
        a.extend(a_vals)
        b = QuantileSketch(eps=EPS_TARGET)
        b.extend(b_vals)
        merged = a.merge(b)
        one_shot = QuantileSketch(eps=EPS_TARGET)
        one_shot.extend(both)
        assert merged.n_seen == len(both)
        thresholds = np.quantile(both, np.linspace(0.0, 1.0, 21))
        exact = _exact_rank(both, thresholds)
        for sk in (merged, one_shot):
            err = np.abs(sk.rank(thresholds) - exact)
            assert err.max() <= sk.rank_error_bound()
            assert sk.rank_error_bound() <= EPS_TARGET * len(both)

    def test_merge_commutative_within_bound(self, rng):
        a_vals = rng.normal(size=8_000)
        b_vals = rng.uniform(-5, 5, 12_000)
        both = np.concatenate([a_vals, b_vals])
        a1, b1 = QuantileSketch(EPS_TARGET), QuantileSketch(EPS_TARGET)
        a1.extend(a_vals)
        b1.extend(b_vals)
        ab, ba = a1.merge(b1), b1.merge(a1)
        thresholds = np.quantile(both, np.linspace(0.0, 1.0, 21))
        exact = _exact_rank(both, thresholds)
        for sk in (ab, ba):
            assert np.abs(sk.rank(thresholds) - exact).max() <= sk.rank_error_bound()
        # The two orders' estimates differ at most by the two bounds.
        gap = np.abs(ab.rank(thresholds) - ba.rank(thresholds)).max()
        assert gap <= ab.rank_error_bound() + ba.rank_error_bound()

    def test_merge_associative_within_bound(self, rng):
        parts = [rng.normal(i, 1 + i, 6_000) for i in range(3)]
        both = np.concatenate(parts)
        sks = []
        for p in parts:
            sk = QuantileSketch(EPS_TARGET)
            sk.extend(p)
            sks.append(sk)
        left = sks[0].merge(sks[1]).merge(sks[2])
        right = sks[0].merge(sks[1].merge(sks[2]))
        thresholds = np.quantile(both, np.linspace(0.0, 1.0, 21))
        exact = _exact_rank(both, thresholds)
        for sk in (left, right):
            assert sk.n_seen == len(both)
            assert np.abs(sk.rank(thresholds) - exact).max() <= sk.rank_error_bound()
            assert sk.rank_error_bound() <= EPS_TARGET * len(both)

    def test_merge_rejects_mixed_capacity(self):
        with pytest.raises(ValueError):
            QuantileSketch(capacity=64).merge(QuantileSketch(capacity=128))


class TestQuantileSketchSerialization:
    def test_round_trip_exact(self, rng):
        values = rng.normal(size=25_000)
        values[::97] = np.nan
        sk = QuantileSketch(eps=0.03)
        sk.extend(values)
        clone = QuantileSketch.from_dict(sk.to_dict())
        thresholds = np.linspace(-3, 3, 31)
        assert np.array_equal(sk.rank(thresholds), clone.rank(thresholds))
        assert clone.rank_error_bound() == sk.rank_error_bound()
        assert clone.n_seen == sk.n_seen
        assert clone.n_nan == sk.n_nan
        # Round-trip must preserve behaviour, not just state: further
        # updates on both must stay identical.
        more = rng.normal(size=5_000)
        sk.extend(more)
        clone.extend(more)
        assert np.array_equal(sk.rank(thresholds), clone.rank(thresholds))

    def test_json_serializable(self, rng):
        import json

        sk = QuantileSketch(eps=0.05)
        sk.extend(rng.normal(size=1_000))
        restored = QuantileSketch.from_dict(json.loads(json.dumps(sk.to_dict())))
        assert restored.n_seen == sk.n_seen

    def test_rejects_wrong_kind(self):
        with pytest.raises(ValueError):
            QuantileSketch.from_dict({"kind": "heavy_hitter"})


class TestHeavyHitterSketch:
    def test_exact_when_capacity_covers_cardinality(self, rng):
        codes = rng.integers(0, 8, 10_000)
        labels = rng.integers(0, 2, 10_000)
        hh = HeavyHitterSketch(capacity=8, n_classes=2)
        for i in range(0, 10_000, 777):
            hh.extend(codes[i : i + 777], labels[i : i + 777])
        assert hh.error_bound() == 0.0
        expect = np.zeros((8, 2))
        for c, l in zip(codes, labels):
            expect[c, l] += 1
        assert np.allclose(hh.matrix(8), expect)

    def test_undercount_within_bound(self, rng):
        # 4 heavy codes + a long tail; capacity 6 forces evictions.
        heavy = np.repeat(np.arange(4), 2_000)
        tail = rng.integers(4, 104, 1_000)
        codes = rng.permutation(np.concatenate([heavy, tail]))
        labels = (codes % 2).astype(np.int64)
        hh = HeavyHitterSketch(capacity=6, n_classes=2)
        hh.extend(codes, labels)
        bound = hh.error_bound()
        assert bound > 0
        mat = hh.matrix(104)
        for code in range(4):
            true_total = float(np.sum(codes == code))
            assert mat[code].sum() <= true_total + 1e-9
            assert mat[code].sum() >= true_total - bound - 1e-9

    def test_merge(self, rng):
        c1, l1 = rng.integers(0, 5, 4_000), rng.integers(0, 2, 4_000)
        c2, l2 = rng.integers(0, 5, 6_000), rng.integers(0, 2, 6_000)
        a = HeavyHitterSketch(5, 2)
        a.extend(c1, l1)
        b = HeavyHitterSketch(5, 2)
        b.extend(c2, l2)
        merged = a.merge(b)
        expect = np.zeros((5, 2))
        for c, l in zip(np.concatenate([c1, c2]), np.concatenate([l1, l2])):
            expect[c, l] += 1
        assert np.allclose(merged.matrix(5), expect)
        assert merged.error_bound() == 0.0

    def test_round_trip(self, rng):
        hh = HeavyHitterSketch(4, 3)
        hh.extend(rng.integers(0, 9, 2_000), rng.integers(0, 3, 2_000))
        clone = HeavyHitterSketch.from_dict(hh.to_dict())
        assert np.array_equal(hh.matrix(9), clone.matrix(9))
        assert clone.error_bound() == hh.error_bound()
        assert clone.n_seen == hh.n_seen

    def test_validation(self):
        with pytest.raises(ValueError):
            HeavyHitterSketch(0, 2)
        with pytest.raises(ValueError):
            HeavyHitterSketch(4, 1)
