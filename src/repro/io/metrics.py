"""Accounting primitives for the simulated disk-resident setting.

The paper's evaluation is dominated by passes over a disk-resident training
set (a 1999 Ultra SPARC 10 with 128 MB of memory).  To reproduce the *shape*
of its results on modern hardware, every algorithm in this repository reads
the training data through :class:`repro.io.pager.PagedTable` and reports its
behaviour through the counters defined here.

The pieces:

* :class:`IOStats` — raw counters (scans, pages, records, auxiliary
  structure reads/writes such as SPRINT attribute lists).
* :class:`MemoryTracker` — named, explicit allocations with a running peak,
  used for the Figure 19 memory comparison.
* :class:`CostModel` — deterministic conversion of counters into a simulated
  time, so "who wins and by what factor" does not depend on the whims of a
  modern CPU cache.
* :class:`BuildStats` — everything one build reports, around an ``IOStats``.
* :class:`ServingStats` — request, batch and latency stats of one served
  model.

``IOStats`` and ``ServingStats`` declare their counters once: a
``COUNTERS`` table of counter name → Prometheus HELP text.  The
attributes, the validated add-under-lock every mutator calls, merging,
``snapshot()`` and the ``cmp_io_<name>_total`` / ``cmp_serve_<name>_total``
families that :mod:`repro.obs.export` renders are all derived from it.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field, fields
from typing import Iterator

from repro.obs.metrics import Histogram
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer

#: Counters that accumulate a float amount of time rather than events.
_FLOAT_COUNTERS = frozenset({"backoff_ms", "busy_seconds"})


class _CounterBlock:
    """Counters declared once, in :attr:`COUNTERS`, and added to under one lock.

    A subclass's ``COUNTERS`` table maps each counter's name to its
    Prometheus HELP text.  The counter's attribute, its ``snapshot()``
    key, its merge and its exported family all follow from that entry.
    Hot paths add to plain attributes under the block's one lock and
    never touch a metrics registry.
    """

    __slots__ = ("_lock",)

    #: Counter name -> Prometheus HELP text, in snapshot and export order.
    COUNTERS: dict[str, str] = {}

    def __init__(self) -> None:
        for name in self.COUNTERS:
            setattr(self, name, 0.0 if name in _FLOAT_COUNTERS else 0)
        self._lock = threading.Lock()

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` (non-negative) to the counter ``name``."""
        self._check(name, n)
        with self._lock:
            setattr(self, name, getattr(self, name) + n)

    def _add(self, **amounts: float) -> None:
        """Add to several counters at once: all of them, or none."""
        for name, n in amounts.items():
            self._check(name, n)
        with self._lock:
            self._fold(amounts)

    def _check(self, name: str, n: float) -> None:
        if name not in self.COUNTERS:
            raise ValueError(f"unknown counter {name!r}")
        if n < 0:
            raise ValueError(f"{name} count must be non-negative")

    def _fold(self, amounts: dict[str, float]) -> None:
        for name, n in amounts.items():
            setattr(self, name, getattr(self, name) + n)

    def _counts(self) -> dict[str, float]:
        return {name: getattr(self, name) for name in self.COUNTERS}


class IOStats(_CounterBlock):
    """Mutable counter block shared by a pager and the algorithm using it.

    All counts are cumulative over the lifetime of one tree build.
    ``aux_*`` counters cover algorithm-private disk structures (attribute
    lists, nid arrays swapped to disk, buffers) measured in *records*.

    Mutators are guarded by a lock: the parallel scan engine
    (:mod:`repro.core.parallel`) reads chunks from several worker threads
    through one shared counter block, and ``+=`` on an attribute is not
    atomic.
    """

    COUNTERS = {
        "scans": "Sequential passes over the training table.",
        "pages_read": "Sequential page reads.",
        "records_read": "Records delivered by table scans.",
        "aux_records_read": "Auxiliary-structure records read.",
        "aux_records_written": "Auxiliary-structure records written.",
        "random_seeks": "Random seeks charged by the cost model.",
        "read_retries": "Chunk reads that were retried.",
        "backoff_ms": "Simulated retry backoff, milliseconds.",
    }
    __slots__ = tuple(COUNTERS)

    def begin_scan(self) -> None:
        """Record the start of one sequential pass over the dataset."""
        self.count("scans")

    def count_pages(self, pages: int, records: int) -> None:
        """Record ``pages`` sequential page reads holding ``records`` rows."""
        self._add(pages_read=pages, records_read=records)

    def count_aux_read(self, records: int) -> None:
        """Record reads of ``records`` rows from an auxiliary structure."""
        self.count("aux_records_read", records)

    def count_aux_write(self, records: int) -> None:
        """Record writes of ``records`` rows to an auxiliary structure."""
        self.count("aux_records_written", records)

    def count_nid_swap(self, records: int) -> None:
        """Record one read and one write of a ``records``-long node-id map.

        Level-synchronous builders keep the record-to-node map on disk
        (as the paper does) and swap it in and out once per scan.
        """
        self._add(aux_records_read=records, aux_records_written=records)

    def count_seek(self, n: int = 1) -> None:
        """Record ``n`` random seeks (e.g. hash-probe driven I/O)."""
        self.count("random_seeks", n)

    def count_retry(self, backoff_ms: float = 0.0) -> None:
        """Record one retried chunk read and the backoff it waited.

        The re-read's pages are charged separately (every read attempt
        goes through :meth:`count_pages`); this counter tracks how often
        the retry path fired and how much simulated waiting it cost, so
        fault recovery shows up honestly in :class:`CostModel` output.
        """
        self._add(read_retries=1, backoff_ms=backoff_ms)

    def snapshot(self) -> dict[str, int]:
        """Return a plain-dict copy of all counters."""
        with self._lock:
            return self._counts()

    def merge_counter_delta(self, delta: dict[str, int]) -> None:
        """Fold a worker's counter increments into this instance.

        Process scan workers charge their fork-inherited *copy* of the
        stats; the parent applies ``after - before`` snapshots so the
        shared accounting ends up identical to a serial or threaded
        pass.  Unknown keys are rejected rather than dropped.
        """
        self._add(**delta)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        inner = ", ".join(f"{k}={v}" for k, v in self.snapshot().items())
        return f"IOStats({inner})"


class MemoryTracker:
    """Track named logical allocations and the peak of their total.

    Algorithms call :meth:`allocate`/:meth:`release` around the data
    structures the paper charges to memory (histogram matrices, alive
    buffers, AVC-groups, attribute lists, hash tables).  Sizes are in bytes.

    All mutators take an internal lock (the same contract as
    :class:`IOStats`): the parallel scan engine charges and releases its
    worker-delta allocation from whatever thread drives the scan while
    builders account structures concurrently, and the read-modify-write
    on the running total is not atomic.
    """

    def __init__(self) -> None:
        self._live: dict[str, int] = {}
        self._current = 0
        self._peak = 0
        self._lock = threading.Lock()

    def allocate(self, name: str, nbytes: int) -> None:
        """Register ``nbytes`` under ``name`` (replacing a previous size)."""
        if nbytes < 0:
            raise ValueError("allocation size must be non-negative")
        with self._lock:
            self._current -= self._live.get(name, 0)
            self._live[name] = nbytes
            self._current += nbytes
            if self._current > self._peak:
                self._peak = self._current

    def release(self, name: str) -> None:
        """Drop the allocation registered under ``name`` (idempotent)."""
        with self._lock:
            self._current -= self._live.pop(name, 0)

    def release_prefix(self, prefix: str) -> None:
        """Drop every allocation whose name starts with ``prefix``."""
        with self._lock:
            for name in [n for n in self._live if n.startswith(prefix)]:
                self._current -= self._live.pop(name)

    @property
    def peak(self) -> int:
        """High-water mark of the registered total."""
        with self._lock:
            return self._peak

    def restore_peak(self, peak: int) -> None:
        """Raise the high-water mark to at least ``peak`` (checkpoint resume)."""
        if peak < 0:
            raise ValueError("peak must be non-negative")
        with self._lock:
            if peak > self._peak:
                self._peak = peak

    @property
    def current(self) -> int:
        """Total bytes currently registered."""
        with self._lock:
            return self._current

    def live_allocations(self) -> dict[str, int]:
        """Return a copy of the live allocation table."""
        with self._lock:
            return dict(self._live)


@dataclass(frozen=True)
class CostModel:
    """Deterministic simulated-time model.

    The defaults approximate a late-1990s machine: sequential page reads at
    ~5 ms per 8 KB page, random seeks at ~10 ms, and a per-record CPU charge.
    Absolute values are irrelevant to the reproduction; only the ratios
    matter, and they are chosen so dataset scans dominate, as in the paper.
    """

    seq_page_ms: float = 5.0
    seek_ms: float = 10.0
    cpu_record_us: float = 15.0
    aux_record_us: float = 8.0

    def simulated_ms(self, stats: IOStats, scan_workers: int = 1) -> float:
        """Convert raw counters to simulated milliseconds.

        ``scan_workers`` is the chunk-parallel worker count of the build
        (see :mod:`repro.core.parallel`): the per-record CPU charge is
        divided across workers, while sequential page reads, seeks and
        auxiliary-structure traffic stay serial — one spindle, however
        many routing threads.
        """
        io = stats.pages_read * self.seq_page_ms + stats.random_seeks * self.seek_ms
        cpu = stats.records_read * self.cpu_record_us / 1000.0 / max(1, scan_workers)
        aux = (
            (stats.aux_records_read + stats.aux_records_written)
            * self.aux_record_us
            / 1000.0
        )
        return io + cpu + aux + stats.backoff_ms


#: Field metadata of a :class:`BuildStats` counter that a checkpoint
#: carries across a resume (:data:`CHECKPOINTED_COUNTERS`).
_CHECKPOINTED = {"checkpointed": True}


@dataclass
class BuildStats:
    """Everything a tree build reports, for experiments and benchmarks.

    Every whole-build counter a resumed build must report in full is
    declared with ``_CHECKPOINTED`` metadata: a checkpoint saves it and a
    resume restores it, and the resumed run adds its own work on top.
    ``wall_seconds`` is not among them, since wall time genuinely differs
    between runs.
    """

    io: IOStats = field(default_factory=IOStats)
    memory: MemoryTracker = field(default_factory=MemoryTracker)
    cost_model: CostModel = field(default_factory=CostModel)
    wall_seconds: float = 0.0
    levels_built: int = 0
    nodes_created: int = 0
    leaves: int = 0
    splits_resolved_exactly: int = field(default=0, metadata=_CHECKPOINTED)
    linear_splits: int = field(default=0, metadata=_CHECKPOINTED)
    two_level_splits: int = field(default=0, metadata=_CHECKPOINTED)
    #: Node ids whose split was committed at the second level of a
    #: two-level pending (CMP-B/CMP).  Those splits compete among the
    #: side sub-matrices' continuous attributes only — categorical
    #: attributes have no per-side histograms — which the verification
    #: harness must know to hold them to the right oracle reference.
    second_level_node_ids: list[int] = field(
        default_factory=list, metadata=_CHECKPOINTED
    )
    predictions_made: int = field(default=0, metadata=_CHECKPOINTED)
    predictions_correct: int = field(default=0, metadata=_CHECKPOINTED)
    buffer_overflow_rescans: int = field(default=0, metadata=_CHECKPOINTED)
    resumed_from_level: int = -1
    #: Chunk-routing workers of the build's scan engine.  Builders that
    #: scan serially, without a scan engine, leave it at 1 whatever
    #: ``config.scan_workers`` says, so the cost model's CPU charge is
    #: divided only for builds whose scans really ran in parallel.
    scan_workers: int = 1
    #: Backend the scan engine actually used ("thread" or "process").
    scan_backend: str = "thread"
    #: Parallel chunk batches dispatched across all scans of the build.
    parallel_batches: int = field(default=0, metadata=_CHECKPOINTED)
    #: Native training-kernel calls made during the build (histogram/
    #: matrix accumulation, gini sweeps, slope walks).  Zero when the
    #: kernels are unavailable or ``CMP_NO_NATIVE=1``.  With the process
    #: backend, calls made inside forked workers ship home as per-kernel
    #: deltas and are folded into the parent tally, so the count matches
    #: the thread backend's.
    native_kernel_calls: int = field(default=0, metadata=_CHECKPOINTED)
    #: The process's native-call tally when ``native_kernel_calls`` was
    #: last brought up to date (:meth:`add_kernel_calls`).
    kernel_calls_mark: int = field(default=0, repr=False, compare=False)
    #: Member trees trained by an ensemble build (0 = single-tree build).
    ensemble_members: int = 0
    #: Level scans of the build, each shared by every member tree still
    #: growing.  Reported for ensemble builds, whose solo equivalent would
    #: have paid ``ensemble_members`` times as many table passes.
    shared_level_scans: int = 0
    #: Wall-clock seconds per build phase ("scan", "resolve", "checkpoint").
    phase_seconds: dict[str, float] = field(default_factory=dict)
    #: Span recorder threaded through the build (``NULL_TRACER`` = off).
    tracer: "Tracer | NullTracer" = field(default=NULL_TRACER, repr=False)
    _phase_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        """Accumulate the wall-clock time of one named build phase.

        Safe under concurrent use: each entry accumulates its elapsed
        time in a thread-local variable and folds it into
        ``phase_seconds`` under a lock on exit, so overlapping phases on
        worker threads never lose each other's read-modify-write.  Each
        entry also records a ``phase:<name>`` span on :attr:`tracer`.
        """
        start = time.perf_counter()
        with self.tracer.span(f"phase:{name}"):
            try:
                yield
            finally:
                elapsed = time.perf_counter() - start
                with self._phase_lock:
                    self.phase_seconds[name] = (
                        self.phase_seconds.get(name, 0.0) + elapsed
                    )

    def add_kernel_calls(self, tally: int) -> None:
        """Count the native calls made since the last mark; mark ``tally``.

        ``tally`` is the process-wide count
        (``native_scan.kernel_calls_total()``), so the build's count
        grows by the calls made in between.
        """
        self.native_kernel_calls += tally - self.kernel_calls_mark
        self.kernel_calls_mark = tally

    @property
    def simulated_ms(self) -> float:
        """Simulated build time in milliseconds under :class:`CostModel`."""
        return self.cost_model.simulated_ms(self.io, self.scan_workers)

    @property
    def prediction_accuracy(self) -> float:
        """Fraction of predictSplit calls whose prediction was used."""
        if self.predictions_made == 0:
            return 0.0
        return self.predictions_correct / self.predictions_made

    def summary(self) -> dict[str, float]:
        """Flat dict used by experiment tables."""
        out = {
            "scans": self.io.scans,
            "pages_read": self.io.pages_read,
            "records_read": self.io.records_read,
            "aux_records_read": self.io.aux_records_read,
            "aux_records_written": self.io.aux_records_written,
            "simulated_ms": round(self.simulated_ms, 3),
            "wall_seconds": round(self.wall_seconds, 4),
            "peak_memory_bytes": self.memory.peak,
            "levels": self.levels_built,
            "nodes": self.nodes_created,
            "leaves": self.leaves,
            "linear_splits": self.linear_splits,
            "two_level_splits": self.two_level_splits,
            "read_retries": self.io.read_retries,
            "scan_workers": self.scan_workers,
            "scan_backend": self.scan_backend,
            "parallel_batches": self.parallel_batches,
            "native_kernel_calls": self.native_kernel_calls,
        }
        if self.ensemble_members:
            out["ensemble_members"] = self.ensemble_members
            out["shared_level_scans"] = self.shared_level_scans
        for name, seconds in sorted(self.phase_seconds.items()):
            out[f"phase_{name}_s"] = round(seconds, 4)
        return out


#: The :class:`BuildStats` counters a checkpoint carries across a resume.
CHECKPOINTED_COUNTERS = tuple(
    f.name for f in fields(BuildStats) if f.metadata.get("checkpointed")
)


class ServingStats(_CounterBlock):
    """Thread-safe latency/throughput/batch-size stats for one served model.

    The serving engine (:mod:`repro.serve`) records one observation per
    executed batch; requests may be finer-grained than batches when the
    micro-batcher coalesces them.  All mutators take the internal lock —
    observations arrive from pool worker threads and the batcher's
    flush thread concurrently.  Request outcomes are counted with
    :meth:`count`, e.g. ``count("shed")`` for a request rejected by
    admission control (Overloaded).

    Latencies feed a log-bucketed :class:`~repro.obs.metrics.Histogram`
    (100 µs … ~100 s, ×2 steps), so :meth:`snapshot` reports
    interpolated p50/p90/p99 alongside the legacy extrema, and worker-
    local blocks merge exactly (the histogram-delta idiom).  ``min_batch``
    tracks the smallest *observed* batch — a genuine zero-record batch
    reports 0, distinguished from "never observed" by an explicit flag
    rather than the old ``min_batch == 0`` sentinel.
    """

    COUNTERS = {
        "requests": "Prediction requests received.",
        "batches": "Batches executed by the serving engine.",
        "records": "Records predicted.",
        "busy_seconds": "Summed batch execution time.",
        "shed": "Requests rejected by admission control.",
        "timeouts": "Requests whose deadline expired.",
        "breaker_rejections": "Requests refused by an open circuit breaker.",
        "fallbacks": "Requests answered by the degraded fallback path.",
        "shard_retries": "Shard executions retried after a failure.",
    }

    def __init__(self) -> None:
        super().__init__()
        self.max_latency_s = 0.0
        self.min_batch = 0
        self.max_batch = 0
        self.batch_observed = False
        self.latency = Histogram()

    def observe_batch(self, batch_size: int, latency_s: float) -> None:
        """Record one executed batch of ``batch_size`` records."""
        if batch_size < 0 or latency_s < 0:
            raise ValueError("batch size and latency must be non-negative")
        with self._lock:
            self.batches += 1
            self.records += batch_size
            self.busy_seconds += latency_s
            if latency_s > self.max_latency_s:
                self.max_latency_s = latency_s
            if not self.batch_observed or batch_size < self.min_batch:
                self.min_batch = batch_size
            if batch_size > self.max_batch:
                self.max_batch = batch_size
            self.batch_observed = True
            self.latency.observe(latency_s)

    def merge_from(self, other: "ServingStats") -> None:
        """Fold ``other``'s counters into this block (for worker-local stats)."""
        # Copy other's state first, then take our own lock: never holding
        # both at once makes concurrent a<->b merges deadlock-free.
        with other._lock:
            counts = other._counts()
            max_latency = other.max_latency_s
            min_batch = other.min_batch
            max_batch = other.max_batch
            observed = other.batch_observed
        with self._lock:
            self._fold(counts)
            self.max_latency_s = max(self.max_latency_s, max_latency)
            if observed:
                self.min_batch = (
                    min(self.min_batch, min_batch)
                    if self.batch_observed
                    else min_batch
                )
                self.batch_observed = True
            self.max_batch = max(self.max_batch, max_batch)
        self.latency.merge_from(other.latency)

    def snapshot(self) -> dict[str, float]:
        """Copy of the raw counters plus derived rates and quantiles.

        ``records_per_s`` is records over summed batch latency (device
        throughput while busy), ``mean_batch`` and ``mean_latency_ms``
        are per-batch averages, and ``p50/p90/p99_latency_ms`` are
        interpolated from the log-bucketed latency histogram (0.0 when
        no batch has been observed).
        """
        with self._lock:
            out: dict[str, float] = self._counts()
            out["max_latency_s"] = self.max_latency_s
            out["min_batch"] = self.min_batch
            out["max_batch"] = self.max_batch
        out["mean_batch"] = out["records"] / out["batches"] if out["batches"] else 0.0
        out["mean_latency_ms"] = (
            1000.0 * out["busy_seconds"] / out["batches"] if out["batches"] else 0.0
        )
        out["records_per_s"] = (
            out["records"] / out["busy_seconds"] if out["busy_seconds"] > 0 else 0.0
        )
        observed = self.latency.count > 0
        for p in (50, 90, 99):
            q = self.latency.quantile(p / 100.0) if observed else 0.0
            out[f"p{p}_latency_ms"] = 1000.0 * q
        return out

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        snap = self.snapshot()
        return (
            f"ServingStats(requests={snap['requests']:.0f}, "
            f"batches={snap['batches']:.0f}, records={snap['records']:.0f})"
        )
