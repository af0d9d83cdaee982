"""Fuzzer self-tests: corpus round-tripping, ddmin shrinking, and a
mutation-style check that an injected builder fault is actually detected
and shrunk — a fuzzer that can't catch a planted bug is decoration."""

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.data.dataset import Dataset
from repro.data.schema import Schema, categorical, continuous
from repro.eval.treegen import adversarial_dataset
from repro.verify.fuzz import (
    CORPUS_FORMAT,
    FailureCase,
    load_case,
    replay_case,
    run_fuzz,
    save_case,
    shrink_case,
)

FAST_CONFIG = BuilderConfig(
    n_intervals=8, max_depth=4, min_records=20, reservoir_capacity=2000
)


def small_case(tmp_path):
    ds = adversarial_dataset("ties", n=40, seed=1)
    attrs = [
        {"name": a.name, "kind": a.kind.value, "categories": list(a.categories)}
        for a in ds.schema.attributes
    ]
    return FailureCase(
        name="unit",
        description="round-trip fixture",
        profile="ties",
        seed=1,
        schema_attrs=attrs,
        class_labels=list(ds.schema.class_labels),
        X=[[float(v) for v in row] for row in ds.X],
        y=[int(v) for v in ds.y],
        builders=["CMP-S"],
        metamorphic_checks=[],
    ), ds


class TestCorpusRoundTrip:
    def test_save_load_bit_identical(self, tmp_path):
        case, ds = small_case(tmp_path)
        path = tmp_path / "unit.json"
        save_case(case, str(path))
        loaded = load_case(str(path))
        assert loaded == case
        rebuilt = loaded.dataset()
        # Exact float round-trip, not approximate: replay must rebuild
        # the bit-identical dataset.
        assert np.array_equal(rebuilt.X, ds.X)
        assert np.array_equal(rebuilt.y, ds.y)
        assert rebuilt.schema == ds.schema

    def test_unknown_format_rejected(self, tmp_path):
        case, __ = small_case(tmp_path)
        case.format = "something-else"
        path = tmp_path / "bad.json"
        save_case(case, str(path))
        with pytest.raises(ValueError, match="unknown corpus format"):
            load_case(str(path))

    def test_config_overrides_apply(self, tmp_path):
        case, __ = small_case(tmp_path)
        case.config_overrides = {"n_intervals": 8, "max_depth": 4}
        cfg = case.config()
        assert cfg.n_intervals == 8
        assert cfg.max_depth == 4


class TestShrinkCase:
    def test_marker_row_is_isolated(self, rng):
        # The predicate fails iff the planted marker row survives: ddmin
        # must strip almost everything else away.
        n = 160
        X = np.column_stack([rng.normal(size=n) for _ in range(4)])
        y = rng.integers(0, 2, n).astype(np.int64)
        X[37, 0] = 777.0
        schema = Schema(tuple(continuous(f"a{i}") for i in range(4)), ("n", "p"))
        ds = Dataset(X, y, schema)

        fails = lambda d: bool(np.any(d.X == 777.0))
        shrunk = shrink_case(ds, fails, max_evals=80)
        assert fails(shrunk)
        assert shrunk.n_records <= 8
        # Attribute shrinking keeps two continuous columns (CMP-B floor).
        assert shrunk.schema.n_attributes == 2

    def test_never_returns_passing_dataset(self, rng):
        X = rng.normal(size=(64, 2))
        y = rng.integers(0, 2, 64).astype(np.int64)
        ds = Dataset(
            X, y, Schema((continuous("a"), continuous("b")), ("n", "p"))
        )
        shrunk = shrink_case(ds, lambda d: True, max_evals=30)
        assert shrunk.n_records >= 1


class TestMutationSelfTest:
    """Plant a real bug in CMP-S's exact-resolution step and require the
    fuzzer to (a) flag it and (b) shrink the witness dataset."""

    def test_injected_fault_is_found_and_shrunk(self, monkeypatch):
        import repro.core.cmp_s as cmp_s_mod
        from repro.core.intervals import select_alive_intervals

        def corrupted(analyses, max_alive):
            # Classic inverted-comparator bug: the *worst*-scoring
            # attribute wins.  The resulting split-quality gap is not
            # covered by any footnote-1 slack, so the differential gap
            # check must fire.
            viable = [a for a in analyses if a.splittable]
            if not viable:
                return None
            winner = max(viable, key=lambda a: (a.score, a.attr))
            winner.alive = select_alive_intervals(winner, max_alive)
            return winner

        with monkeypatch.context() as mp:
            mp.setattr(cmp_s_mod, "choose_split_attribute", corrupted)
            cases, runs = run_fuzz(
                FAST_CONFIG,
                profiles=("ties", "mixed"),
                seeds=range(2),
                n=150,
                builders=("CMP-S",),
                metamorphic_checks=None,
                max_shrink_evals=40,
            )
            assert runs == 4
            assert cases, "planted fault escaped the fuzzer"
            case = cases[0]
            assert case.findings
            # Shrinking made real progress on the witness.
            assert len(case.y) < 150
            # The stored case still reproduces while the fault is live.
            assert replay_case(case)

        # Fault removed: the same corpus case must replay clean, proving
        # the capture is about the bug, not about the harness.
        assert replay_case(case) == []


@pytest.mark.fuzz
class TestFuzzSweep:
    def test_clean_sweep_over_all_profiles(self):
        cfg = BuilderConfig(
            n_intervals=16, max_depth=6, min_records=25, reservoir_capacity=5000
        )
        cases, runs = run_fuzz(cfg, seeds=range(2), n=250)
        assert runs >= 12
        assert cases == [], "\n".join(f for c in cases for f in c.findings)
