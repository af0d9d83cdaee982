"""Tests for level checkpoints and crash/resume equivalence.

The headline guarantee: kill a build after *any* scan, resume it from the
last level checkpoint, and you get a bit-identical serialized tree, the
same predictions and the same cumulative I/O totals as a build that was
never interrupted.
"""

import numpy as np
import pytest

from repro.baselines.clouds import CloudsBuilder
from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.config import BuilderConfig
from repro.core.checkpoint import (
    CheckpointError,
    CheckpointManager,
    SlotCounter,
    build_fingerprint,
)
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.serialize import tree_to_json
from repro.data.synthetic import generate_agrawal
from repro.io.faults import FaultInjector, FaultyDataset, InjectedCrash
from repro.io.metrics import BuildStats
from repro.io.storage import StoredDataset, write_table
from repro.verify.conformance import RESUMES

CFG = BuilderConfig(n_intervals=16, max_depth=4, min_records=30)


def clouds_ss(config):
    """CLOUDS in its one-scan-per-level SS mode."""
    return CloudsBuilder(config.with_(clouds_mode="ss"))


#: The conformance cases of the builders this module parametrizes over.
CASE_NAMES = {
    CMPSBuilder: "CMP-S",
    CMPBBuilder: "CMP-B",
    CMPBuilder: "CMP",
    CloudsBuilder: "CLOUDS-SSE",
    clouds_ss: "CLOUDS-SS",
}


@pytest.fixture(scope="module", params=["F2", "F7"])
def data(request):
    """The Agrawal function the module's builds learn."""
    return request.param


@pytest.fixture(scope="module")
def stored(data, tmp_path_factory):
    ds = generate_agrawal(data, 3_000, seed=5)
    path = tmp_path_factory.mktemp("ckpt") / f"{data}.cmptbl"
    write_table(ds, path)
    return StoredDataset(path)


class TestSlotCounter:
    def test_monotone_and_picklable(self):
        import pickle

        c = SlotCounter()
        assert [c(), c(), c()] == [1, 2, 3]
        c2 = pickle.loads(pickle.dumps(c))
        assert c2() == 4


class TestCheckpointManager:
    def fingerprint(self, dataset):
        return build_fingerprint("CMP-S", CFG, dataset)

    def test_round_trip(self, stored, tmp_path):
        mgr = CheckpointManager(tmp_path / "ck.bin", self.fingerprint(stored))
        assert not mgr.exists()
        stats = BuildStats()
        stats.io.begin_scan()
        stats.io.count_pages(3, 300)
        stats.memory.allocate("hist/x", 1000)
        stats.splits_resolved_exactly = 2
        mgr.save(4, {"nid": np.arange(5), "next_slot": SlotCounter(9)}, stats)
        assert mgr.exists()

        restored = BuildStats()
        level, state = mgr.load(restored)
        assert level == 4
        np.testing.assert_array_equal(state["nid"], np.arange(5))
        assert state["next_slot"]() == 9
        assert restored.io.scans == 1
        assert restored.io.pages_read == 3
        assert restored.memory.current == 1000
        assert restored.splits_resolved_exactly == 2
        assert restored.resumed_from_level == 4
        mgr.clear()
        assert not mgr.exists()
        mgr.clear()  # idempotent

    def test_corrupt_payload_rejected(self, stored, tmp_path):
        path = tmp_path / "ck.bin"
        mgr = CheckpointManager(path, self.fingerprint(stored))
        mgr.save(0, {}, BuildStats())
        raw = bytearray(path.read_bytes())
        raw[-1] ^= 0xFF
        path.write_bytes(bytes(raw))
        with pytest.raises(CheckpointError, match="checksum"):
            mgr.load(BuildStats())

    def test_truncated_and_foreign_files_rejected(self, stored, tmp_path):
        path = tmp_path / "ck.bin"
        path.write_bytes(b"\x01")
        mgr = CheckpointManager(path, self.fingerprint(stored))
        with pytest.raises(CheckpointError, match="truncated"):
            mgr.load(BuildStats())
        path.write_bytes(b"NOTACKPT" + b"\x00" * 32)
        with pytest.raises(CheckpointError, match="not a checkpoint"):
            mgr.load(BuildStats())

    def test_fingerprint_mismatch_rejected(self, stored, tmp_path):
        path = tmp_path / "ck.bin"
        CheckpointManager(path, self.fingerprint(stored)).save(0, {}, BuildStats())
        other = build_fingerprint("CMP-S", CFG.with_(n_intervals=32), stored)
        with pytest.raises(CheckpointError, match="different build"):
            CheckpointManager(path, other).load(BuildStats())

    def test_resilience_knobs_do_not_change_identity(self, stored, tmp_path):
        # The resuming run flips resume=True and may use another checkpoint
        # path; neither invalidates the checkpoint.
        path = tmp_path / "ck.bin"
        writer_cfg = CFG.with_(checkpoint_path=str(path))
        CheckpointManager(
            path, build_fingerprint("CMP-S", writer_cfg, stored)
        ).save(1, {}, BuildStats())
        reader_cfg = writer_cfg.with_(resume=True)
        level, __ = CheckpointManager(
            path, build_fingerprint("CMP-S", reader_cfg, stored)
        ).load(BuildStats())
        assert level == 1


@pytest.mark.parametrize(
    "builder_cls", [CMPSBuilder, CMPBBuilder, CMPBuilder, CloudsBuilder, clouds_ss]
)
class TestCrashResumeEquivalence:
    def test_checkpointing_build_is_unchanged_and_cleans_up(
        self, builder_cls, stored, tmp_path
    ):
        base = builder_cls(CFG).build(stored)
        ck = tmp_path / "ck.bin"
        run = builder_cls(CFG.with_(checkpoint_path=str(ck))).build(stored)
        assert tree_to_json(run.tree) == tree_to_json(base.tree)
        assert run.stats.io.scans == base.stats.io.scans
        assert not ck.exists()

    def test_kill_after_every_scan_resumes_bit_identical(
        self, builder_cls, stored, tmp_path
    ):
        base = builder_cls(CFG).build(stored)
        base_json = tree_to_json(base.tree)
        total_scans = base.stats.io.scans
        X = stored.load().X
        base_pred = base.tree.predict(X)

        ck = tmp_path / "ck.bin"
        cfg = CFG.with_(checkpoint_path=str(ck), resume=True)
        resumed_at = []
        for kill in range(total_scans):
            ck.unlink(missing_ok=True)
            injector = FaultInjector(kill_at_scan=kill)
            with pytest.raises(InjectedCrash):
                builder_cls(cfg).build(FaultyDataset(stored, injector))
            result = builder_cls(cfg).build(stored)
            assert tree_to_json(result.tree) == base_json
            np.testing.assert_array_equal(result.tree.predict(X), base_pred)
            assert result.stats.io.scans == total_scans
            assert result.stats.io.pages_read == base.stats.io.pages_read
            assert (
                result.stats.second_level_node_ids
                == base.stats.second_level_node_ids
            )
            assert (
                result.stats.native_kernel_calls == base.stats.native_kernel_calls
            )
            assert result.stats.parallel_batches == base.stats.parallel_batches
            resumed_at.append(result.stats.resumed_from_level)
        # Later kills must resume from later levels (the checkpoint
        # actually advances; -1 = no checkpoint yet, built from scratch).
        assert resumed_at == sorted(resumed_at)
        assert resumed_at[0] == -1
        assert resumed_at[-1] >= 1

    def test_resume_carries_parallel_counters(
        self, conformance_matrix, builder_cls, data
    ):
        # A resumed build reports the whole build's kernel calls and chunk
        # batches, not only those of the run after the resume: a slice
        # of the conformance matrix, on the same data held in memory.
        name = CASE_NAMES[builder_cls]
        for crash, resume in RESUMES:
            run = f"{crash.label}->{resume.label} resume"
            conformance_matrix.check(name, data, crash, run)

    def test_resume_flag_without_checkpoint_builds_from_scratch(
        self, builder_cls, stored, tmp_path
    ):
        ck = tmp_path / "absent.bin"
        cfg = CFG.with_(checkpoint_path=str(ck), resume=True)
        base = builder_cls(CFG).build(stored)
        run = builder_cls(cfg).build(stored)
        assert tree_to_json(run.tree) == tree_to_json(base.tree)
        assert run.stats.resumed_from_level == -1


@pytest.mark.parametrize("builder_cls", [RainForestBuilder, SprintBuilder, SliqBuilder])
def test_builders_without_checkpoints_refuse_a_checkpoint_path(builder_cls, tmp_path):
    cfg = CFG.with_(checkpoint_path=str(tmp_path / "ck.bin"))
    with pytest.raises(ValueError, match="does not support checkpointing"):
        builder_cls(cfg)


class TestBufferBudgetFallback:
    def test_overflow_falls_back_to_rescan_with_identical_tree(self, stored):
        base = CMPSBuilder(CFG).build(stored)
        tight = CMPSBuilder(CFG.with_(buffer_budget_bytes=2_048)).build(stored)
        assert tree_to_json(tight.tree) == tree_to_json(base.tree)
        assert tight.stats.buffer_overflow_rescans > 0
        # Each fallback costs extra sequential reads, never a wrong tree.
        assert tight.stats.io.pages_read > base.stats.io.pages_read

    def test_generous_budget_never_overflows(self, stored):
        roomy = CMPSBuilder(CFG.with_(buffer_budget_bytes=1 << 30)).build(stored)
        assert roomy.stats.buffer_overflow_rescans == 0
