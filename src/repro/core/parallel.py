"""Chunk-parallel scan engine with deterministic delta merging.

Every CMP builder is level-synchronous: a tree level is one sequential
pass over the training table, during which each chunk's records are
routed into per-pending accumulators (class histograms, histogram
matrices, alive-interval record buffers) and the ``nid`` record→slot
map.  All of those accumulators are *mergeable sketches* — they expose
exact ``merge_from`` reducers — which is precisely the structure that
lets split finding parallelize in the streaming/massively-parallel
model (Pham, Ta & Vu).

:class:`ScanEngine` exploits that:

* the level's chunk list is partitioned into ``workers`` **contiguous**
  slices, preserving chunk order within each slice;
* each worker reads its chunks through the shared (retrying, possibly
  fault-injecting) table handle and routes them into a **private
  delta** — a structural clone of the live pendings with empty
  accumulators;
* after the pass, deltas are merged into the live pendings **in slice
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
    record ids it covers, so chunk-disjoint writes commute.  Routing is
    GIL-bound except where the native kernels release nothing but are
    simply fast.

``process``
    A per-scan ``fork`` pool.  Each worker is forked *at scan time*, so
    it inherits the live pendings, table handle and routing closures by
    copy-on-write — nothing is pickled on the way in.  Results travel
    back explicitly: the accumulator delta, the worker's slice of the
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

With ``workers == 1`` the engine streams chunks straight into the live
pendings — byte-for-byte the pre-engine serial path, no pool, no
deltas, no merge.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Any, Callable, Sequence

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


def _run_fork_batch(
    index: int, chunk_starts: list[int]
) -> tuple[Any, int | None, int | None, Any, dict[str, int], dict[str, int], list[dict[str, object]] | None]:
    """Route one contiguous chunk slice inside a forked worker.

    Runs against the fork-inherited :data:`_FORK_JOB`.  Returns the
    accumulator delta, the ``[lo, hi)`` record range covered (when a
    writeback array is in play) with the worker's copy of that slice,
    the worker's IO-counter delta relative to the fork point, the
    per-kernel native-call delta, and — when the parent shipped a
    trace context — the worker's recorded spans as dicts (a
    ``chunk_batch`` root tagged with this worker's pid, io ``retry``
    children, and per-kernel dispatch markers) for the parent to graft.
    """
    job = _FORK_JOB
    assert job is not None, "fork batch outside an active process scan"
    table = job["table"]
    route = job["route"]
    writeback = job["writeback"]
    ctx = job["trace_ctx"]
    wtracer: Tracer | None = None
    if ctx is not None:
        wtracer = Tracer.from_context(ctx)
        if hasattr(table, "tracer"):
            # The forked copy of the table handle is private to this
            # child; pointing it at the worker tracer routes its retry
            # spans here without touching the parent's object.
            table.tracer = wtracer
    kernels_before = native_scan.kernel_counts()
    before = table.stats.snapshot()
    delta = job["make_delta"]()
    lo: int | None = None
    hi: int | None = None

    def _route_slice() -> None:
        nonlocal lo, hi
        for start in chunk_starts:
            chunk = table.read_chunk(start)
            route(chunk, delta)
            if writeback is not None:
                if lo is None:
                    lo = chunk.start
                hi = chunk.stop

    if wtracer is not None:
        with wtracer.span(
            "chunk_batch",
            worker=index,
            chunks=len(chunk_starts),
            pid=os.getpid(),
        ) as batch_span:
            _route_slice()
        _record_kernel_spans(
            wtracer, batch_span, kernels_before, native_scan.kernel_counts()
        )
    else:
        _route_slice()
    after = table.stats.snapshot()
    io_delta = {key: after[key] - before[key] for key in after}
    kernels_after = native_scan.kernel_counts()
    kernel_delta = {
        name: kernels_after[name] - kernels_before.get(name, 0)
        for name in kernels_after
        if kernels_after[name] != kernels_before.get(name, 0)
    }
    nid_slice = None
    if writeback is not None and lo is not None:
        nid_slice = np.ascontiguousarray(writeback[lo:hi])
    span_dicts = (
        [sp.to_dict() for sp in wtracer.spans()] if wtracer is not None else None
    )
    return delta, lo, hi, nid_slice, io_delta, kernel_delta, span_dicts


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
        route: Callable[[Any, Any], None],
        live: Any,
        make_delta: Callable[[], Any],
        merge_delta: Callable[[Any], None],
        *,
        memory: MemoryTracker | None = None,
        delta_nbytes: int = 0,
        writeback: "np.ndarray | None" = None,
    ) -> None:
        """One full accounted pass over ``table``.

        ``route(chunk, target)`` folds one chunk into ``target`` —
        ``live`` on the serial path, a private ``make_delta()`` result
        per worker otherwise.  Deltas are handed to ``merge_delta`` in
        chunk order.  ``delta_nbytes`` (per delta) is charged to
        ``memory`` for the duration of a parallel pass so worker copies
        show up in the Figure 19 accounting.  ``writeback`` names the
        per-record array ``route`` writes through ``chunk.rids`` (the
        ``nid`` map); process workers return their slice of it for the
        parent to apply, thread workers write it in place.
        """
        if not self.parallel:
            for chunk in table.scan():
                route(chunk, live)
            return
        # Mirror RetryingTable.scan: charge the scan, then list the chunk
        # starts (a fault injector's kill_at_scan fires here, in the
        # caller's thread, before any worker launches).
        table.stats.begin_scan()
        slices = partition_chunks(list(table.chunk_starts()), self.workers)
        if memory is not None and delta_nbytes:
            memory.allocate(DELTA_ALLOCATION, len(slices) * delta_nbytes)
        try:
            if self.effective_backend == "process":
                self._scan_processes(table, route, make_delta, merge_delta, slices, writeback)
            else:
                self._scan_threads(table, route, make_delta, merge_delta, slices)
        finally:
            if memory is not None and delta_nbytes:
                memory.release(DELTA_ALLOCATION)

    def _scan_threads(
        self,
        table: Any,
        route: Callable[[Any, Any], None],
        make_delta: Callable[[], Any],
        merge_delta: Callable[[Any], None],
        slices: list[list[int]],
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

            def job(index: int, chunk_starts: list[int]) -> Any:
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
                    delta = make_delta()
                    for start in chunk_starts:
                        route(table.read_chunk(start), delta)
                if traced:
                    _record_kernel_spans(
                        self.tracer,
                        batch_span,
                        kernels_before,
                        native_scan.thread_kernel_counts(),
                    )
                return delta

            futures = [pool.submit(job, i, s) for i, s in enumerate(slices)]
            self.batches_dispatched += len(slices)
            try:
                # Collect in submission order == chunk order.  result()
                # re-raises worker failures (e.g. ScanFailedError after
                # exhausted retries).
                for future in futures:
                    merge_delta(future.result())
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
        route: Callable[[Any, Any], None],
        make_delta: Callable[[], Any],
        merge_delta: Callable[[Any], None],
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
                "route": route,
                "make_delta": make_delta,
                "writeback": writeback,
                # Serializable continuation handle (None when tracing is
                # off): workers build a local tracer from it and ship
                # their spans home for grafting.
                "trace_ctx": self.tracer.context(scan_span),
            }
            # A fresh pool per scan: fork workers must inherit *this*
            # scan's live state (pendings, nid, table position), which a
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
                for index, future in enumerate(futures):
                    delta, lo, hi, nid_slice, io_delta, kernel_delta, span_dicts = (
                        future.result()
                    )
                    merge_delta(delta)
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
