"""Chunk-parallel scan engine with deterministic delta merging.

Every CMP builder is level-synchronous: a tree level is one sequential
pass over the training table, during which each chunk's records are
routed into per-pending accumulators (class histograms, histogram
matrices, alive-interval record buffers) and the ``nid`` record→slot
map.  All of those accumulators are *mergeable sketches* — a level's
counts live in one arena of arrays that merge by add, ``fmin`` and
``fmax``, and buffers concatenate — which is precisely the structure
that lets split finding parallelize in the streaming/massively-parallel
model (Pham, Ta & Vu).

Every pass hands :meth:`ScanEngine.scan` its **scan targets**.  A target
has four methods:

* ``route(chunk)`` folds one chunk into the target;
* ``scan_delta()`` returns empty accumulators (a level build's zeroed
  arena and fresh buffers) that share the target's routing context
  (``nid``, weights, …);
* ``merge_scan_delta(delta)`` folds such a delta back in;
* ``delta_nbytes()`` is the memory one fresh delta occupies.

:class:`ScanEngine` exploits that:

* the pass's chunk list is partitioned into ``workers`` **contiguous**
  slices, preserving chunk order within each slice;
* each worker reads its chunks through the shared (retrying, possibly
  fault-injecting) table handle and routes them into **private
  deltas**, ``[t.scan_delta() for t in targets]``;
* after the pass, deltas are merged into the targets **in slice
  order**, i.e. in global chunk order.

Determinism rule: every accumulator update is exact (integer-valued
float64 or integer counts, extrema, concatenated record buffers), so
merging worker deltas in chunk order reproduces the serial pass *bit
for bit* — the built tree, its predictions and the scan counts are
identical for any worker count and either backend.

Two backends execute the worker slices:

``thread``
    A lazily created thread pool.  Workers share the live process, so
    ``nid`` writes need no delta at all — a chunk only ever writes the
    record ids it covers, so chunk-disjoint writes commute.  Routing
    holds the GIL except inside the native kernels, whose ``ctypes``
    calls release it.

``process``
    A per-scan ``fork`` pool.  Each worker is forked *at scan time*, so
    it inherits the targets, their routing context and the table handle
    by copy-on-write — nothing is pickled on the way in.  Results travel
    back explicitly: the deltas, which pickle their accumulators and
    leave the routing context behind, the worker's slice of the
    ``writeback`` array (the forked copy of ``nid`` is private to the
    child), an IO-counter delta folded into the shared stats so
    page/record/retry accounting matches the serial pass, a per-kernel
    native-call delta folded into :func:`native_scan.merge_counts` so
    ``BuildStats.native_kernel_calls`` stays accurate across backends,
    and — when tracing — the worker's recorded span dicts, grafted
    under the parent ``scan`` span via :meth:`Tracer.graft`.  Merging
    stays in submission order, hence in global chunk order.  On
    platforms without ``fork`` the engine silently uses threads.

The engine composes with the fault-tolerance layer unchanged: chunk
reads go through :class:`~repro.io.retry.RetryingTable.read_chunk`
(per-chunk retries with simulated backoff), injected crashes fire on
``chunk_starts()`` in the caller's thread before workers launch, and
level checkpoints see exactly the same post-merge state a serial build
would produce — a checkpointed parallel build resumes bit-identically
under any other worker count or backend.  One asymmetry: with process
workers, a fault injector's *counters* advance in the forked children,
so the parent-side injector object stays at zero even though retries
(visible in ``read_retries``) happened.

Scan execution is exception-safe on both backends: when routing or
merging raises, pending batches are cancelled and the worker pool is
shut down before the error propagates, so a poisoned scan leaves no
live worker threads or processes behind.

With ``workers == 1`` the engine streams chunks straight into the
targets — no pool, no deltas, no merge.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Sequence

import numpy as np

from repro.core import native_scan
from repro.io.metrics import MemoryTracker
from repro.obs.trace import NULL_TRACER, NullTracer, Span, Tracer

#: Memory-tracker tag under which worker-delta bytes are charged.
DELTA_ALLOCATION = "scan/worker-deltas"

#: Scan backends accepted by :class:`ScanEngine` and ``--scan-backend``.
SCAN_BACKENDS = ("thread", "process")


def process_backend_available() -> bool:
    """True when this platform can fork scan workers."""
    return "fork" in multiprocessing.get_all_start_methods()


def partition_chunks(starts: Sequence[int], workers: int) -> list[list[int]]:
    """Split chunk starts into at most ``workers`` contiguous, balanced runs.

    Contiguity is what makes the merge deterministic: concatenating the
    per-slice results in slice order reproduces global chunk order.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    n = len(starts)
    w = min(workers, n)
    if w == 0:
        return []
    base, extra = divmod(n, w)
    slices: list[list[int]] = []
    lo = 0
    for i in range(w):
        hi = lo + base + (1 if i < extra else 0)
        slices.append(list(starts[lo:hi]))
        lo = hi
    return slices


#: Scan-scoped job state for forked workers.  Set by the parent
#: immediately before creating the per-scan fork pool (so children
#: inherit it copy-on-write) and cleared when the scan ends.
_FORK_JOB: dict[str, Any] | None = None


def _record_kernel_spans(
    tracer: "Tracer | NullTracer",
    parent: Span,
    before: dict[str, int],
    after: dict[str, int],
) -> None:
    """Emit one marker ``kernel`` span per native kernel that fired.

    ``before``/``after`` are per-kernel call-count snapshots taken
    around a chunk batch; each kernel with a positive delta gets a
    zero-duration span (attrs ``kernel``/``calls``) under ``parent`` —
    dispatch *accounting*, not timing, since individual kernel calls
    are far below span-recording resolution.
    """
    for name in sorted(after):
        calls = after.get(name, 0) - before.get(name, 0)
        if calls > 0:
            with tracer.span("kernel", parent=parent, kernel=name, calls=calls):
                pass


def _route_slice(
    table: Any, targets: Sequence[Any], chunk_starts: list[int]
) -> tuple[list[Any], int | None, int | None]:
    """Route one worker's chunks into fresh deltas of ``targets``.

    Returns the deltas and the ``[lo, hi)`` record range covered.
    """
    deltas = [t.scan_delta() for t in targets]
    lo = hi = None
    for start in chunk_starts:
        chunk = table.read_chunk(start)
        for d in deltas:
            d.route(chunk)
        lo = chunk.start if lo is None else lo
        hi = chunk.stop
    return deltas, lo, hi


def _run_fork_batch(index: int, chunk_starts: list[int]) -> tuple:
    """Route one contiguous chunk slice inside a forked worker.

    Runs against the fork-inherited :data:`_FORK_JOB`.  Returns the
    targets' deltas, the ``[lo, hi)`` record range covered with the
    worker's copy of that slice of the writeback array (when one is in
    play), the worker's IO-counter delta relative to the fork point,
    the per-kernel native-call delta, and — when the parent shipped a
    trace context — the worker's recorded spans as dicts (a
    ``chunk_batch`` root tagged with this worker's pid, io ``retry``
    children, and per-kernel dispatch markers) for the parent to graft.
    """
    job = _FORK_JOB
    assert job is not None, "fork batch outside an active process scan"
    table, writeback, ctx = job["table"], job["writeback"], job["trace_ctx"]
    wtracer: "Tracer | NullTracer" = NULL_TRACER
    if ctx is not None:
        wtracer = Tracer.from_context(ctx)
        if hasattr(table, "tracer"):
            # The forked copy of the table handle is private to this
            # child; pointing it at the worker tracer routes its retry
            # spans here without touching the parent's object.
            table.tracer = wtracer
    kernels_before = native_scan.kernel_counts()
    before = table.stats.snapshot()
    with wtracer.span(
        "chunk_batch", worker=index, chunks=len(chunk_starts), pid=os.getpid()
    ) as batch_span:
        deltas, lo, hi = _route_slice(table, job["targets"], chunk_starts)
    kernels_after = native_scan.kernel_counts()
    if wtracer.enabled:
        _record_kernel_spans(wtracer, batch_span, kernels_before, kernels_after)
    after = table.stats.snapshot()
    io_delta = {key: after[key] - before[key] for key in after}
    kernel_delta = {
        name: kernels_after[name] - kernels_before.get(name, 0)
        for name in kernels_after
        if kernels_after[name] != kernels_before.get(name, 0)
    }
    nid_slice = None
    if writeback is not None and lo is not None:
        nid_slice = np.ascontiguousarray(writeback[lo:hi])
    span_dicts = [sp.to_dict() for sp in wtracer.spans()] if wtracer.enabled else None
    return deltas, lo, hi, nid_slice, io_delta, kernel_delta, span_dicts


class ScanEngine:
    """Executes accounted table scans, serially or chunk-parallel.

    Parameters
    ----------
    workers:
        Routing workers per scan.  ``1`` keeps the exact serial path; a
        pool is created only for ``workers > 1``.
    tracer:
        Optional span recorder.  A parallel pass records one ``scan``
        span with a ``chunk_batch`` child per worker slice, each tagged
        with its worker index and pid and carrying the worker's io
        ``retry`` spans plus per-kernel ``kernel`` dispatch markers.
        Thread workers parent-link across the thread boundary; process
        workers record into a worker-local tracer built from a shipped
        :class:`~repro.obs.trace.TraceContext` and the parent grafts
        the subtree back, so both backends produce structurally
        equivalent traces.  Tracing never changes routing, merging, or
        accounting.
    backend:
        ``"thread"`` (default) or ``"process"``.  The process backend
        falls back to threads where ``fork`` is unavailable.
    """

    def __init__(
        self,
        workers: int = 1,
        tracer: "Tracer | NullTracer | None" = None,
        backend: str = "thread",
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if backend not in SCAN_BACKENDS:
            raise ValueError(
                f"backend must be one of {SCAN_BACKENDS}, got {backend!r}"
            )
        self.workers = workers
        self.backend = backend
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self._pool: ThreadPoolExecutor | None = None
        #: Parallel chunk batches dispatched over the engine's lifetime,
        #: or since a builder last folded the count into its stats and
        #: reset it.
        self.batches_dispatched = 0

    @property
    def parallel(self) -> bool:
        """True when scans fan chunks out across workers."""
        return self.workers > 1

    @property
    def effective_backend(self) -> str:
        """The backend scans actually use on this platform."""
        if self.backend == "process" and not process_backend_available():
            return "thread"
        return self.backend

    def _ensure_pool(self) -> ThreadPoolExecutor:
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self.workers, thread_name_prefix="cmp-scan"
            )
        return self._pool

    def close(self) -> None:
        """Shut the worker pool down (idempotent)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True)
            self._pool = None

    def __enter__(self) -> "ScanEngine":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    def scan(
        self,
        table: Any,
        targets: Sequence[Any],
        *,
        memory: MemoryTracker | None = None,
        writeback: "np.ndarray | None" = None,
    ) -> None:
        """One full accounted pass over ``table``, routed into ``targets``.

        Each chunk goes to every target in order: straight into the
        targets on the serial path, into each worker's own
        ``[t.scan_delta() for t in targets]`` otherwise, merged back by
        ``merge_scan_delta`` in chunk order.  The workers' deltas,
        ``sum(t.delta_nbytes())`` each, are charged to ``memory`` for the
        duration of a parallel pass so worker copies show up in the
        Figure 19 accounting.  ``writeback`` names the per-record array
        the targets write through ``chunk.rids`` (the ``nid`` map);
        process workers return their slice of it for the parent to
        apply, thread workers write it in place.
        """
        if not self.parallel:
            for chunk in table.scan():
                for t in targets:
                    t.route(chunk)
            return
        # Mirror RetryingTable.scan: charge the scan, then list the chunk
        # starts (a fault injector's kill_at_scan fires here, in the
        # caller's thread, before any worker launches).
        table.stats.begin_scan()
        slices = partition_chunks(list(table.chunk_starts()), self.workers)
        delta_nbytes = sum(t.delta_nbytes() for t in targets)
        if memory is not None and delta_nbytes:
            memory.allocate(DELTA_ALLOCATION, len(slices) * delta_nbytes)
        try:
            if self.effective_backend == "process":
                self._scan_processes(table, targets, slices, writeback)
            else:
                self._scan_threads(table, targets, slices)
        finally:
            if memory is not None and delta_nbytes:
                memory.release(DELTA_ALLOCATION)

    def _scan_threads(
        self, table: Any, targets: Sequence[Any], slices: list[list[int]]
    ) -> None:
        with self.tracer.span(
            "scan",
            parallel=True,
            workers=len(slices),
            backend="thread",
            chunks=sum(len(s) for s in slices),
        ) as scan_span:
            pool = self._ensure_pool()
            traced = self.tracer.enabled

            def job(index: int, chunk_starts: list[int]) -> list[Any]:
                kernels_before = (
                    native_scan.thread_kernel_counts() if traced else None
                )
                with self.tracer.span(
                    "chunk_batch",
                    parent=scan_span,
                    worker=index,
                    chunks=len(chunk_starts),
                    pid=os.getpid(),
                ) as batch_span:
                    deltas, __, __ = _route_slice(table, targets, chunk_starts)
                if traced:
                    _record_kernel_spans(
                        self.tracer,
                        batch_span,
                        kernels_before,
                        native_scan.thread_kernel_counts(),
                    )
                return deltas

            futures = [pool.submit(job, i, s) for i, s in enumerate(slices)]
            self.batches_dispatched += len(slices)
            try:
                # Collect in submission order == chunk order.  result()
                # re-raises worker failures (e.g. ScanFailedError after
                # exhausted retries).
                for future in futures:
                    for t, d in zip(targets, future.result()):
                        t.merge_scan_delta(d)
            except BaseException:
                # Poisoned scan: drop queued batches, then tear the pool
                # down so no worker threads outlive the failure.
                for future in futures:
                    future.cancel()
                self.close()
                raise

    def _scan_processes(
        self,
        table: Any,
        targets: Sequence[Any],
        slices: list[list[int]],
        writeback: "np.ndarray | None",
    ) -> None:
        global _FORK_JOB
        # Resolve (and if necessary compile) the native kernels before
        # forking so every child inherits the loaded library instead of
        # racing to build its own.
        native_scan.warm_up()
        with self.tracer.span(
            "scan",
            parallel=True,
            workers=len(slices),
            backend="process",
            chunks=sum(len(s) for s in slices),
        ) as scan_span:
            _FORK_JOB = {
                "table": table,
                "targets": targets,
                "writeback": writeback,
                # Serializable continuation handle (None when tracing is
                # off): workers build a local tracer from it and ship
                # their spans home for grafting.
                "trace_ctx": self.tracer.context(scan_span),
            }
            # A fresh pool per scan: fork workers must inherit *this*
            # scan's live state (targets, nid, table position), which a
            # pool forked during an earlier scan would not see.
            pool = ProcessPoolExecutor(
                max_workers=len(slices),
                mp_context=multiprocessing.get_context("fork"),
            )
            futures = []
            try:
                futures = [
                    pool.submit(_run_fork_batch, i, s) for i, s in enumerate(slices)
                ]
                self.batches_dispatched += len(slices)
                for future in futures:
                    deltas, lo, hi, nid_slice, io_delta, kernel_delta, span_dicts = (
                        future.result()
                    )
                    for t, d in zip(targets, deltas):
                        t.merge_scan_delta(d)
                    if writeback is not None and nid_slice is not None:
                        writeback[lo:hi] = nid_slice
                    table.stats.merge_counter_delta(io_delta)
                    if kernel_delta:
                        native_scan.merge_counts(kernel_delta)
                    if span_dicts:
                        # Same epoch on both sides (TraceContext ships
                        # it), so worker timestamps land on the parent's
                        # axis verbatim.
                        self.tracer.graft(span_dicts, parent=scan_span)
            except BaseException:
                for future in futures:
                    future.cancel()
                raise
            finally:
                pool.shutdown(wait=True)
                _FORK_JOB = None


__all__ = [
    "ScanEngine",
    "partition_chunks",
    "process_backend_available",
    "DELTA_ALLOCATION",
    "SCAN_BACKENDS",
]
