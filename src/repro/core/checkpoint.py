"""Level-granular checkpoint/resume for scan-based tree builders.

Every level-driver builder (the CMP family and CLOUDS) is
level-synchronous: the whole of its mutable state lives in a handful of
objects between scans — the partial tree, the ``nid`` record→slot map,
the pending splits (histograms, alive bounds, empty buffers) and the
slot allocator.  A checkpoint is exactly
that state, pickled at a level boundary, plus the I/O/memory counters so
a resumed build reports the same totals an uninterrupted one would.

Resume is bit-identical by construction: the first checkpoint is taken
*after* every randomized step (reservoir quantiling, CMP-B's root X-axis
draw) has completed, and everything from there on is deterministic given
the saved state.  Killing a build after any completed level and resuming
from its checkpoint therefore yields the same serialized tree, the same
predictions and the same scan counts.

Checkpoint files are integrity-protected the same way stored tables are:
a CRC32 over the payload, verified on load, and writes go through a temp
file + ``os.replace`` so a crash *during checkpointing* leaves the
previous checkpoint intact rather than a torn file.  A fingerprint
(builder name, config, dataset shape and schema) binds a checkpoint to
the build that wrote it; resuming against the wrong dataset or config is
refused instead of silently producing a wrong tree.
"""

from __future__ import annotations

import os
import pickle
import struct
import zlib
from dataclasses import asdict
from pathlib import Path
from typing import Any

from repro.config import BuilderConfig
from repro.io.metrics import CHECKPOINTED_COUNTERS, BuildStats

MAGIC = b"CMPCKPT1"
_PREFIX = struct.Struct("<8sIQ")  # magic, crc32(payload), len(payload)


class CheckpointError(ValueError):
    """A checkpoint file is unreadable, corrupt, or from another build."""


class SlotCounter:
    """Picklable monotone slot allocator (replaces ``iter(range(...))``)."""

    def __init__(self, start: int = 1) -> None:
        self.next = start

    def __call__(self) -> int:
        value = self.next
        self.next += 1
        return value


def build_fingerprint(
    builder_name: str, config: BuilderConfig, dataset: Any
) -> dict[str, Any]:
    """Identity of one build: what a checkpoint must match to be resumable."""
    cfg = asdict(config)
    # resume/checkpoint_path/scan_workers/scan_backend say how a build is
    # being run, not what it builds: the resuming run necessarily differs
    # from the writing run on the first two, and the parallel scan engine
    # is bit-identical across worker counts and backends, so a checkpoint
    # written under one parallelism setup is resumable under any other.
    del cfg["resume"], cfg["checkpoint_path"], cfg["scan_workers"]
    del cfg["scan_backend"]
    return {
        "builder": builder_name,
        "config": cfg,
        "n_records": int(dataset.n_records),
        "n_attributes": int(dataset.n_attributes),
        "class_labels": tuple(dataset.schema.class_labels),
        "attributes": tuple(
            (a.name, a.kind.value, tuple(a.categories))
            for a in dataset.schema.attributes
        ),
    }


def loop_state(account, root, nid, pendings, next_slot) -> dict[str, Any]:
    """The five objects that fully determine a level-synchronous build.

    Shared by every solo level-driver build (CMP-S, CMP-B, CMP and
    CLOUDS): the node allocator, the partial tree, the record→slot map,
    the pending splits and the slot counter.  Pickling them in one payload preserves object sharing
    (pending splits reference nodes inside the tree).
    """
    return {
        "account": account,
        "root": root,
        "nid": nid,
        "pendings": pendings,
        "next_slot": next_slot,
    }


class CheckpointManager:
    """Reads and writes one build's checkpoint file."""

    def __init__(self, path: str | Path, fingerprint: dict[str, Any]) -> None:
        self.path = Path(path)
        self.fingerprint = fingerprint

    def exists(self) -> bool:
        """True when a checkpoint file is present (not necessarily valid)."""
        return self.path.exists()

    def save(self, level: int, state: dict[str, Any], stats: BuildStats) -> None:
        """Atomically persist the state reached after completing ``level``.

        ``stats`` must be up to date: the builder folds in the kernel
        calls and chunk batches it counts outside them first.
        """
        payload = pickle.dumps(
            {
                "fingerprint": self.fingerprint,
                "level": level,
                "state": state,
                "io": stats.io.snapshot(),
                "memory": {
                    "live": stats.memory.live_allocations(),
                    "current": stats.memory.current,
                    "peak": stats.memory.peak,
                },
                "counters": {f: getattr(stats, f) for f in CHECKPOINTED_COUNTERS},
            },
            protocol=pickle.HIGHEST_PROTOCOL,
        )
        tmp = self.path.parent / f"{self.path.name}.tmp.{os.getpid()}"
        try:
            with tmp.open("wb") as fh:
                fh.write(_PREFIX.pack(MAGIC, zlib.crc32(payload), len(payload)))
                fh.write(payload)
                fh.flush()
                os.fsync(fh.fileno())
            os.replace(tmp, self.path)
        finally:
            tmp.unlink(missing_ok=True)

    def load(self, stats: BuildStats) -> tuple[int, dict[str, Any]]:
        """Restore counters into ``stats`` and return ``(level, state)``.

        Raises :class:`CheckpointError` on a torn/corrupt file or a
        fingerprint mismatch.
        """
        raw = self.path.read_bytes()
        if len(raw) < _PREFIX.size:
            raise CheckpointError(f"{self.path}: truncated checkpoint")
        magic, crc, length = _PREFIX.unpack_from(raw)
        if magic != MAGIC:
            raise CheckpointError(f"{self.path}: not a checkpoint file")
        payload = raw[_PREFIX.size : _PREFIX.size + length]
        if len(payload) != length or zlib.crc32(payload) != crc:
            raise CheckpointError(f"{self.path}: checkpoint checksum mismatch")
        data = pickle.loads(payload)
        if data["fingerprint"] != self.fingerprint:
            raise CheckpointError(
                f"{self.path}: checkpoint belongs to a different build "
                "(builder, config, or dataset changed)"
            )
        for name, value in data["io"].items():
            setattr(stats.io, name, value)
        mem = data["memory"]
        for name, nbytes in mem["live"].items():
            stats.memory.allocate(name, nbytes)
        stats.memory.restore_peak(mem["peak"])
        for name, value in data["counters"].items():
            setattr(stats, name, value)
        stats.resumed_from_level = data["level"]
        return data["level"], data["state"]

    def clear(self) -> None:
        """Remove the checkpoint (called when a build completes)."""
        self.path.unlink(missing_ok=True)
