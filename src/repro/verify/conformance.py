"""Conformance matrix: every engine-scanned build reproduces its serial build.

The axes are constants: :data:`CASES` (the builders that scan through
:class:`~repro.core.parallel.ScanEngine`; SLIQ, SPRINT and RainForest do
not), :data:`ENGINES` and :data:`KERNELS`.  Every engine and kernel mode
builds fresh; the parallel backends also build under :data:`FAULTS`
(native kernels); checkpointing builders are killed mid-build and
resumed under another engine (:data:`RESUMES`, native kernels).  Each
run must match the serial fresh build (docs/TESTING.md lists what).
Merging several worker deltas in chunk order is what makes them exact
mergeable summaries (Pham, Ta & Vu), so :func:`page_records_for` splits
every scan, and a run that tests less than it claims is a
``vacuous_run`` finding.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, NamedTuple

from repro.baselines.clouds import CloudsBuilder
from repro.config import BuilderConfig
from repro.core import native_scan
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.ensemble import BaggedForestBuilder, HistGradientBoostingBuilder
from repro.io.faults import FaultInjector, FaultyDataset, InjectedCrash
from repro.verify.differential import Finding, tree_signature
from repro.verify.forest import forest_signatures


class Engine(NamedTuple):
    """How a build runs its scans: ``workers`` on ``backend``."""

    label: str
    backend: str
    workers: int


SERIAL = Engine("serial", "thread", 1)
THREAD4 = Engine("thread4", "thread", 4)
PROCESS4 = Engine("process4", "process", 4)
#: Slices of unequal length: :func:`page_records_for` avoids a multiple
#: of 3 chunks.
UNEVEN = Engine("thread3", "thread", 3)
ENGINES = (SERIAL, THREAD4, PROCESS4, UNEVEN)
KERNELS = ("native", "numpy")
FAULT_ENGINES = (THREAD4, PROCESS4)
#: ``(crash engine, resume engine)``.
RESUMES = ((THREAD4, PROCESS4), (PROCESS4, THREAD4), (UNEVEN, SERIAL))
FAULTS = dict(transient_rate=0.08, truncate_rate=0.04, corrupt_rate=0.04, seed=3)


class Case(NamedTuple):
    """A builder of the matrix: ``make(config)`` and what must match."""

    name: str
    make: Callable
    signature: Callable = lambda result: tree_signature(result.tree)
    overflows: bool = False


CASES = (
    Case("CMP-S", CMPSBuilder),
    Case("CMP-B", CMPBBuilder),
    Case("CMP", CMPBuilder),
    Case("CLOUDS-SSE", lambda cfg: CloudsBuilder(cfg.with_(clouds_mode="sse"))),
    Case("CLOUDS-SS", lambda cfg: CloudsBuilder(cfg.with_(clouds_mode="ss"))),
    Case(
        "CMP-S-overflow",
        lambda cfg: CMPSBuilder(cfg.with_(buffer_budget_bytes=2_048)),
        overflows=True,
    ),
    Case(
        "bagged-CMP-S",
        lambda cfg: BaggedForestBuilder(cfg, n_trees=3),
        lambda result: forest_signatures(result.forest),
    ),
    Case(
        "hist-gbdt",
        lambda cfg: HistGradientBoostingBuilder(cfg, n_iterations=2),
        lambda result: result.forest.compiled().fingerprint,
    ),
)
CASES_BY_NAME = {case.name: case for case in CASES}


def page_records_for(dataset) -> int:
    """The largest page size that gives every scan at least two chunks
    per worker and a chunk count :data:`UNEVEN` cannot split evenly.
    Below that many records a page holds one record, and scans get as
    many chunks as ``n`` allows."""
    n = dataset.n_records
    pages = dataset.as_paged().pages_per_chunk
    size = max(1, n // (pages * 2 * max(e.workers for e in ENGINES)))
    while size > 1 and -(-n // (pages * size)) % UNEVEN.workers == 0:
        size -= 1
    return size


def _build(case, config, dataset, engine, kernels="native", **checkpoint):
    cfg = config.with_(
        page_records=page_records_for(dataset),
        scan_workers=engine.workers,
        scan_backend=engine.backend,
        **(checkpoint or dict(checkpoint_path=None, resume=False)),
    )
    if kernels == "numpy":
        with native_scan.force_numpy():
            return case.make(cfg).build(dataset)
    return case.make(cfg).build(dataset)


def reference(case: Case, dataset, config: BuilderConfig) -> dict:
    """The serial fresh build under each kernel mode, by mode."""
    return {k: _build(case, config, dataset, SERIAL, k) for k in KERNELS}


class _Vacuous(Exception):
    """A run that tested less than it claims."""


def _faulty(case, config, dataset, engine):
    faulty = FaultyDataset(dataset, FaultInjector(**FAULTS))
    result = _build(case, config, faulty, engine)
    if not result.stats.io.read_retries:
        raise _Vacuous("no chunk read was retried")
    return result


def _resumed(case, config, dataset, crash, resume, kill):
    with tempfile.TemporaryDirectory(prefix="cmp-conformance-") as tmp:
        ckpt = dict(checkpoint_path=os.path.join(tmp, "build.ckpt"), resume=True)
        killer = FaultyDataset(dataset, FaultInjector(kill_at_scan=kill))
        try:
            _build(case, config, killer, crash, **ckpt)
        except InjectedCrash:
            result = _build(case, config, dataset, resume, **ckpt)
        else:
            raise _Vacuous(f"scan {kill} never began")
    if result.stats.resumed_from_level < 0:
        raise _Vacuous(f"no checkpoint before scan {kill}")
    return result


def _observed(case: Case, result, reads: bool) -> dict:
    stats = result.stats
    out = {
        "signature": case.signature(result),
        "io.scans": stats.io.scans,
        "buffer_overflow_rescans": stats.buffer_overflow_rescans,
        "second_level_node_ids": sorted(stats.second_level_node_ids),
        "native_kernel_calls": stats.native_kernel_calls,
    }
    if reads:
        out.update(pages_read=stats.io.pages_read, records_read=stats.io.records_read)
    return out


def check_engine(
    case: Case, dataset, config: BuilderConfig, engine: Engine, ref: dict | None = None
) -> list[Finding]:
    """Findings of every run of ``case`` under ``engine`` (module
    docstring); ``ref`` is :func:`reference`'s, built when not given."""
    ref = ref or reference(case, dataset, config)
    scans = ref["native"].stats.io.scans
    table = dataset.as_paged(page_records=page_records_for(dataset))
    chunks = len(table.chunk_starts())
    findings = []
    if case.overflows and not ref["native"].stats.buffer_overflow_rescans:
        findings.append(Finding(case.name, "vacuous_run", "no buffer overflowed"))

    def run(label, fn, *args, kernels="native", workers=engine.workers, reads=True):
        try:
            result = fn(case, config, dataset, *args)
        except _Vacuous as exc:
            findings.append(Finding(case.name, "vacuous_run", f"{label}: {exc}"))
            return
        except Exception as exc:  # noqa: BLE001 - crashes become findings
            message = f"{label}: {type(exc).__name__}: {exc}"
            findings.append(Finding(case.name, "crash", message))
            return
        want = _observed(case, ref["native"], reads)
        got = _observed(case, result, reads)
        want["native_kernel_calls"] = ref[kernels].stats.native_kernel_calls
        if workers > 1:
            if min(workers, chunks) < 2:
                findings.append(Finding(case.name, "vacuous_run", f"{label}: 1 chunk"))
            want["parallel_batches"] = min(workers, chunks) * (scans - 1)
            got["parallel_batches"] = result.stats.parallel_batches
        findings.extend(
            Finding(
                case.name,
                "conformance_divergence",
                f"{label}: {key} {got[key]!r:.60} != {want[key]!r:.60}",
            )
            for key in want
            if got[key] != want[key]
        )

    for kernels in KERNELS:
        if (engine, kernels) != (SERIAL, "native"):
            label = f"{engine.label}/{kernels} fresh"
            run(label, _build, engine, kernels, kernels=kernels)
    if engine in FAULT_ENGINES:
        run(f"{engine.label} faults", _faulty, engine, reads=False)
    if scans < 3 or not case.make(config).supports_checkpointing:
        return findings
    for crash, resume in RESUMES:
        if crash == engine:
            # Batches add up to a fresh build's only at one worker count.
            workers = resume.workers if resume.workers == crash.workers else 0
            label = f"{crash.label}->{resume.label} resume"
            run(label, _resumed, crash, resume, max(2, scans // 2), workers=workers)
    return findings


def check_case(case: Case, dataset, config: BuilderConfig) -> list[Finding]:
    """:func:`check_engine` under every engine (where ``fork`` is missing,
    the process engine runs on threads)."""
    ref = reference(case, dataset, config)
    return [f for e in ENGINES for f in check_engine(case, dataset, config, e, ref)]
