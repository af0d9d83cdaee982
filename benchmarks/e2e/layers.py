"""Per-layer spans for a traced benchmark run, recorded from outside ``src/``.

:func:`installed` wraps the public functions of each training layer so
that every call records one :class:`repro.obs.trace.Tracer` span named
after its layer.  Functions that builders import by name are patched
where they are imported (``repro.core.cmp_b.predict_split``, not
``repro.core.predict.predict_split``); methods are patched once on their
class.  Leaving the context restores every original.

:func:`layer_table` turns the recorded spans into per-layer calls, work
and self time.  A span's self time is its duration minus the time its
child spans cover.  Spans the program records on its own (``build``,
``level``, ``phase:*``, ``scan``, ``retry``, ``kernel``) belong to the
nearest enclosing layer span, or to ``other`` outside every layer, so
the self times of all layers plus ``other`` add up to the traced wall
time.  Spans shipped home by forked scan workers (``chunk_batch`` and
everything under it) run in parallel with the parent, so they are
reported as their own worker lane and kept out of that sum.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from typing import Iterator

import repro.core.cmp_b as cmp_b
import repro.core.cmp_full as cmp_full
import repro.core.cmp_s as cmp_s
import repro.core.intervals as intervals
import repro.core.linear as linear
import repro.pruning.public as public
from repro.core.builder import PartState, RecordBuffer
from repro.core.compiled import CompiledTree
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.matrix import MatrixSet
from repro.core.parallel import ScanEngine
from repro.data.discretize import ReservoirSampler
from repro.io.retry import RetryingTable
from repro.obs.trace import Span, Tracer
from repro.serve.engine import ServingEngine

#: (owner, attribute, layer, index of the argument whose length is the
#: layer's work in records, or None).  Index 0 is ``self`` for methods.
TRAINING_TARGETS = (
    (RetryingTable, "read_chunk", "io.read", None),
    (ScanEngine, "scan", "parallel.scan", None),
    (ClassHistogram, "update", "histogram.accumulate", 2),
    (CategoryHistogram, "update", "histogram.accumulate", 2),
    (MatrixSet, "update", "histogram.accumulate", 2),
    (RecordBuffer, "append", "builder.buffer", 2),
    (PartState, "merge_from", "builder.merge", None),
    (MatrixSet, "merge_from", "builder.merge", None),
    (RecordBuffer, "extend_from", "builder.merge", None),
    (cmp_s, "analyze_attribute", "intervals.estimate", None),
    (cmp_b, "analyze_attribute", "intervals.estimate", None),
    (cmp_s, "choose_split_attribute", "intervals.estimate", None),
    (cmp_b, "choose_split_attribute", "intervals.estimate", None),
    (intervals, "interval_estimates", "estimation.interval", None),
    (cmp_s, "edges_from_histogram", "discretize.requantile", None),
    (cmp_b, "edges_from_histogram", "discretize.requantile", None),
    (ReservoirSampler, "extend", "discretize.requantile", None),
    (cmp_b, "predict_split", "predict.predict_split", None),
    (cmp_full, "predict_split", "predict.predict_split", None),
    (cmp_full, "best_linear_candidate", "linear.walk", None),
    (linear, "gini_slope_walk", "linear.walk", None),
    (cmp_s, "resolve_exact_threshold", "builder.resolve", None),
    (cmp_b, "resolve_exact_threshold", "builder.resolve", None),
    (public, "public_prune_pass", "pruning.prune", None),
)

#: The serving path: the engine call a micro-batch flush makes, and the
#: compiled-tree kernel under it.  ``records`` is the batch's row count.
SERVING_TARGETS = (
    (ServingEngine, "predict", "engine.predict", 2),
    (CompiledTree, "predict", "compiled.predict", 1),
)

TRAINING_LAYERS = tuple(dict.fromkeys(t[2] for t in TRAINING_TARGETS))

#: Root span of one traced build, opened by the benchmark around the call.
ROOT = "bench.build"
#: Root of a forked or threaded scan worker's subtree.
WORKER = "chunk_batch"


def _wrap(fn, tracer: Tracer, layer: str, work_arg: int | None, latest: dict):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(layer) as span:
            if work_arg is not None:
                span.attrs["records"] = len(args[work_arg])
            out = fn(*args, **kwargs)
        latest[layer] = span
        return out

    return traced


@contextmanager
def installed(tracer: Tracer, targets=TRAINING_TARGETS) -> Iterator[dict[str, Span]]:
    """Record a span per call of every target while the context is open.

    Yields a dict holding the most recently finished span of each layer,
    which lets a reply callback find the engine call that served it.
    """
    latest: dict[str, Span] = {}
    saved = []
    try:
        for owner, name, layer, work_arg in targets:
            original = vars(owner)[name]
            saved.append((owner, name, original))
            setattr(owner, name, _wrap(original, tracer, layer, work_arg, latest))
        yield latest
    finally:
        for owner, name, original in reversed(saved):
            setattr(owner, name, original)


def _covered(pairs: list[tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(pairs):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        elif hi > cur_hi:
            cur_hi = hi
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def layer_table(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per-layer ``calls``, ``records``, ``s`` (duration) and ``self_s``.

    ``calls`` and ``records`` count only calls made into a layer from
    outside it (``MatrixSet.update`` accumulating its categorical
    histograms is one accumulation, not four).  ``s`` sums the duration
    of those outermost calls; ``self_s`` is the layer's share of the
    wall time.  The ``other`` row holds what no layer covers, the
    ``worker`` row the summed duration of worker-lane batches, and the
    ``total`` row the sum of every self time on the main lane.
    """
    by_id = {sp.span_id: sp for sp in spans}
    owners: dict[int, str] = {}  # span id -> layer, "other" or "worker"

    def owner_of(sp: Span | None) -> str:
        if sp is None:
            return "other"
        got = owners.get(sp.span_id)
        if got is None:
            up = owner_of(by_id.get(sp.parent_id))
            if sp.name == WORKER or up == "worker":
                got = "worker"
            elif sp.name in TRAINING_LAYERS:
                got = sp.name
            else:
                got = up
            owners[sp.span_id] = got
        return got

    children: dict[int, list[tuple[float, float]]] = {}
    for sp in spans:
        if owner_of(sp) != "worker" and sp.parent_id in by_id:
            children.setdefault(sp.parent_id, []).append(
                (sp.start_s, sp.start_s + sp.duration_s)
            )

    rows: dict[str, dict[str, float]] = {
        name: {"calls": 0, "records": 0, "s": 0.0, "self_s": 0.0}
        for name in (*TRAINING_LAYERS, "other", "worker", "total")
    }
    for sp in spans:
        owner = owners[sp.span_id]
        if owner == "worker":
            if sp.name == WORKER:
                rows["worker"]["calls"] += 1
                rows["worker"]["s"] += sp.duration_s
            continue
        start, end = sp.start_s, sp.start_s + sp.duration_s
        kids = [
            (max(lo, start), min(hi, end))
            for lo, hi in children.get(sp.span_id, ())
            if hi > start and lo < end
        ]
        self_s = sp.duration_s - _covered(kids)
        rows[owner]["self_s"] += self_s
        rows["total"]["self_s"] += self_s
        if sp.name == owner and owner_of(by_id.get(sp.parent_id)) != owner:
            rows[owner]["calls"] += 1
            rows[owner]["records"] += int(sp.attrs.get("records", 0))
            rows[owner]["s"] += sp.duration_s
    return rows


def serving_table(spans: list[Span], ladder_spans: int) -> dict[str, float]:
    """Batch and kernel numbers of a traced serving run.

    The first ``ladder_spans`` spans were recorded while the open loop
    ran; engine calls among them are micro-batch flushes.  A flush's
    self time is its duration minus the kernel calls made under it.
    """
    by_id = {sp.span_id: sp for sp in spans}
    kernel_under: dict[int, float] = {}
    for sp in spans:
        if sp.name != "compiled.predict":
            continue
        up = by_id.get(sp.parent_id)
        while up is not None and up.name != "engine.predict":
            up = by_id.get(up.parent_id)
        if up is not None:
            kernel_under[up.span_id] = kernel_under.get(up.span_id, 0.0) + sp.duration_s
    flushes = [sp for sp in spans[:ladder_spans] if sp.name == "engine.predict"]
    kernels = [sp for sp in spans if sp.name == "compiled.predict"]
    kernel_s = sum(sp.duration_s for sp in kernels)
    n = max(1, len(flushes))
    return {
        "batcher.batches": len(flushes),
        "batcher.batch_rows.mean": sum(sp.attrs["records"] for sp in flushes) / n,
        "engine.predict.self_us_per_batch": 1e6 * sum(
            sp.duration_s - kernel_under.get(sp.span_id, 0.0) for sp in flushes
        ) / n,
        "compiled.predict.s": kernel_s,
        "compiled.predict.rows_per_s": (
            sum(sp.attrs["records"] for sp in kernels) / kernel_s if kernel_s else 0.0
        ),
    }
