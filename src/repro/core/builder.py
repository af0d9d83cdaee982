"""Shared machinery for scan-based tree builders.

Every classifier in this repository is *level-synchronous*: it repeatedly
scans the (simulated) disk-resident training set, routing each record to the
frontier node it belongs to, and grows the tree between scans.  This module
holds the pieces common to the CMP family and the baselines:

* :class:`BuildResult` — what ``build()`` returns.
* :class:`TreeBuilder` — the abstract base and the one build wrapper of
  every builder, solo or ensemble: timing, the ``build`` span, pruning
  and the node/leaf/level tallies.
* :class:`LevelBuilder` — the level driver of CMP-S, CMP-B, CMP, CLOUDS
  and the bagged forest: quantiling and root scans, the level loop,
  overflow rescans, slot remapping, PUBLIC(1) pruning and checkpoints,
  run over one :class:`Member` per tree.  Subclasses supply only their
  root accumulator, the histograms a decision needs, the decision and
  resolution (and CLOUDS its exact pass); the driver analyses a whole
  level's histograms at once.
* Zone arithmetic for preliminary splits around alive intervals.
* :func:`resolve_exact_threshold` — the "from approximate split to exact
  split" computation (§2.1): combine boundary ginis with the sorted records
  buffered from the alive intervals to find the globally best threshold.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field, replace
from types import GeneratorType
from typing import Callable, Generator, Iterator

import numpy as np

from repro.config import BuilderConfig
from repro.core.checkpoint import (
    CheckpointManager,
    SlotCounter,
    build_fingerprint,
    loop_state,
)
from repro.core.gini import gini_partition
from repro.core.parallel import ScanEngine
from repro.core import native_scan
from repro.core.histogram import (
    CategoryHistogram,
    ClassHistogram,
    SubsetSplit,
    best_subset_splits,
)
from repro.core.intervals import AttributeAnalysis, analyze_attributes
from repro.core.splits import Split
from repro.core.tree import DecisionTree, Node, TreeAccount
from repro.data.dataset import Dataset
from repro.data.discretize import ReservoirSampler
from repro.data.schema import Schema
from repro.io.metrics import BuildStats
from repro.io.pager import ScanChunk
from repro.io.retry import RetryingTable
from repro.obs.trace import NULL_TRACER, NullTracer, Tracer


@dataclass
class BuildResult:
    """A trained tree plus the accounting of how it was built."""

    tree: DecisionTree
    stats: BuildStats

    @property
    def summary(self) -> dict[str, float]:
        """Flat stats dict (see :meth:`repro.io.metrics.BuildStats.summary`)."""
        return self.stats.summary()


class TreeBuilder(ABC):
    """Base class for all classifiers.

    Subclasses implement :meth:`_build` and receive a fresh
    :class:`~repro.io.metrics.BuildStats`; :meth:`build` wraps it with
    wall-clock timing and optional pruning.  Ensemble builders return a
    forest from :meth:`_build`, set :attr:`result_type` and add their
    ``build`` span attributes through :meth:`_span_attrs`.
    """

    #: Short name used in experiment tables.
    name: str = "base"

    #: What :meth:`build` returns, constructed as ``result_type(model, stats)``.
    result_type: type = BuildResult

    #: True for builders that run PUBLIC(1) pruning *during* construction
    #: (the CMP family).  Builders without integrated support fall back to
    #: an equivalent post-hoc MDL pass when ``prune == "public"`` — PUBLIC
    #: never prunes anything the final MDL pass would keep, so the trees
    #: agree; only the construction work differs (which is PUBLIC's point).
    supports_integrated_pruning: bool = False

    #: True for builders that save and resume ``config.checkpoint_path``
    #: (the solo level-driver builds); the others refuse a checkpoint path.
    supports_checkpointing: bool = False

    def __init__(
        self,
        config: BuilderConfig | None = None,
        tracer: "Tracer | NullTracer | None" = None,
    ) -> None:
        self.config = config if config is not None else BuilderConfig()
        if self.config.checkpoint_path and not self.supports_checkpointing:
            raise ValueError(f"{self.name} does not support checkpointing")
        #: Span recorder threaded through the build's table, scan engine
        #: and phase timers.  ``NULL_TRACER`` (the default) records
        #: nothing; tracing never changes the built tree.
        self.tracer = tracer if tracer is not None else NULL_TRACER

    def build(self, dataset: Dataset) -> BuildResult:
        """Train a decision tree (or an ensemble's trees) on ``dataset``."""
        if dataset.n_records == 0:
            raise ValueError("cannot build a tree on an empty dataset")
        stats = BuildStats()
        stats.tracer = self.tracer
        stats.kernel_calls_mark = native_scan.kernel_calls_total()
        start = time.perf_counter()
        with self.tracer.span(
            "build",
            builder=self.name,
            records=dataset.n_records,
            **self._span_attrs(),
        ) as build_span:
            model = self._build(dataset, stats)
            ensemble = not isinstance(model, DecisionTree)
            trees = model.members if ensemble else (model,)
            prune = self.config.prune
            if prune == "mdl" or (
                prune == "public" and not self.supports_integrated_pruning
            ):
                from repro.pruning.mdl import mdl_prune

                with stats.phase("prune"):
                    for tree in trees:
                        mdl_prune(tree)
        stats.wall_seconds = time.perf_counter() - start
        stats.nodes_created = sum(t.n_nodes for t in trees)
        stats.leaves = sum(t.n_leaves for t in trees)
        stats.levels_built = max(t.depth for t in trees)
        if ensemble:
            stats.ensemble_members = len(trees)
        stats.add_kernel_calls(native_scan.kernel_calls_total())
        # Stamp the final accounting onto the (already closed) root span
        # so `inspect-trace` can cross-check scan spans against it.
        build_span.annotate(
            scans=stats.io.scans,
            pages_read=stats.io.pages_read,
            levels=stats.levels_built,
            nodes=stats.nodes_created,
            wall_seconds=round(stats.wall_seconds, 6),
        )
        return self.result_type(model, stats)

    @abstractmethod
    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        """Construct the tree, charging all I/O and memory to ``stats``.

        Ensemble builders return a forest (anything with ``members``).
        """

    def _span_attrs(self) -> dict[str, object]:
        """Extra attributes of the build's ``build`` span."""
        return {}

    @contextmanager
    def _scan_engine(self, stats: BuildStats) -> Iterator[ScanEngine]:
        """The build's chunk-parallel scan engine, closed on exit.

        Only builds that scan through an engine record its worker count
        and backend, so serial builders keep ``stats.scan_workers == 1``.
        """
        engine = ScanEngine(
            self.config.scan_workers,
            tracer=self.tracer,
            backend=self.config.scan_backend,
        )
        stats.scan_workers = self.config.scan_workers
        stats.scan_backend = engine.effective_backend
        try:
            yield engine
        finally:
            self._settle_counters(stats, engine)
            engine.close()

    @staticmethod
    def _settle_counters(stats: BuildStats, engine: ScanEngine) -> None:
        """Fold into ``stats`` what the build counts outside it so far:
        native kernel calls and the engine's chunk batches."""
        stats.add_kernel_calls(native_scan.kernel_calls_total())
        stats.parallel_batches += engine.batches_dispatched
        engine.batches_dispatched = 0

    def _open_table(self, dataset: Dataset, stats: BuildStats) -> RetryingTable:
        """Open the training table behind the retrying scan wrapper.

        Every builder reads training data through this handle, so all of
        them share the same recovery semantics: recoverable chunk-read
        faults are re-read up to ``config.scan_retries`` times with
        exponential backoff, charged to ``stats.io``.
        """
        table = dataset.as_paged(stats.io, self.config.page_records)
        return RetryingTable(
            table,
            self.config.scan_retries,
            self.config.retry_backoff_ms,
            tracer=self.tracer,
        )

    def _read_table(self, table) -> tuple[np.ndarray, np.ndarray]:
        """One accounted scan that loads the whole table as ``(X, y)``."""
        chunks = list(table.scan())
        return (
            np.concatenate([chunk.X for chunk in chunks]),
            np.concatenate([chunk.y for chunk in chunks]),
        )

    def _quantile_scan(
        self,
        table,
        schema: Schema,
        streams: list[tuple[np.ndarray | None, np.random.Generator]],
    ) -> list[tuple[np.ndarray, dict[int, np.ndarray]]]:
        """The quantiling scan: root class totals and equal-depth root grids.

        ``streams`` holds one ``(weights, rng)`` pair per tree fed by the
        scan: per-record bootstrap multiplicities (``None`` for the table
        itself) and the generator its reservoirs draw from.  Returns one
        ``(totals, edges)`` pair per stream.

        Reservoir sampling consumes records in stream order, so this scan
        stays serial under every worker count.
        """
        cfg = self.config
        c = schema.n_classes
        cont = schema.continuous_indices()
        batch = cfg.page_records * table.pages_per_chunk
        feeds = [
            _ReservoirFeed(cont, cfg.reservoir_capacity, rng, batch)
            for __, rng in streams
        ]
        totals = [np.zeros(c, dtype=np.float64) for __ in streams]
        for chunk in table.scan():
            for (weights, __), feed, tot in zip(streams, feeds, totals):
                w = None if weights is None else weights[chunk.start : chunk.stop]
                tot += np.bincount(chunk.y, weights=w, minlength=c)
                feed.push(
                    chunk.X
                    if w is None
                    else np.repeat(chunk.X, w.astype(np.int64), axis=0)
                )
        return [
            (tot, feed.edges(cfg.n_intervals)) for tot, feed in zip(totals, feeds)
        ]

    def _checkpointer(self, dataset: Dataset) -> CheckpointManager | None:
        """The build's checkpoint manager, or ``None`` when not configured."""
        if not self.config.checkpoint_path:
            return None
        return CheckpointManager(
            self.config.checkpoint_path,
            build_fingerprint(self.name, self.config, dataset),
        )


class _ReservoirFeed:
    """One tree's quantiling reservoirs, fed in batches of the chunk size.

    A bagged member's stream is the table with each record repeated
    ``weight`` times.  Re-cutting it into batches of the table's chunk
    size gives its reservoirs exactly the batches — and hence the random
    draws — of a solo build on the materialized bootstrap sample.  An
    unweighted stream's batches are the table's chunks themselves.
    """

    def __init__(
        self, cont: list[int], capacity: int, rng: np.random.Generator, batch: int
    ) -> None:
        self.reservoirs = {j: ReservoirSampler(capacity, rng) for j in cont}
        self.batch = batch
        #: Trailing rows short of a full batch, or ``None``.
        self.carry: np.ndarray | None = None

    def push(self, rows: np.ndarray) -> None:
        """Append rows to the stream; offer every complete batch."""
        if self.carry is not None:
            rows = np.concatenate([self.carry, rows])
        full = len(rows) - len(rows) % self.batch
        for start in range(0, full, self.batch):
            self._offer(rows[start : start + self.batch])
        self.carry = rows[full:] if full < len(rows) else None

    def edges(self, q: int) -> dict[int, np.ndarray]:
        """Offer the final partial batch, then each attribute's root grid."""
        if self.carry is not None:
            self._offer(self.carry)
            self.carry = None
        return {j: r.edges(q) for j, r in self.reservoirs.items()}

    def _offer(self, block: np.ndarray) -> None:
        for j, reservoir in self.reservoirs.items():
            reservoir.extend(block[:, j])


# ---------------------------------------------------------------------------
# Frontier bookkeeping shared by CMP-S / CMP-B
# ---------------------------------------------------------------------------


@dataclass
class PartState:
    """One preliminary subnode being populated during a scan."""

    slot: int
    n_classes: int
    hists: dict[int, ClassHistogram | CategoryHistogram] = field(default_factory=dict)
    class_counts: np.ndarray | None = None

    #: The fused kernel's pointer plan, built on first update.  Never
    #: pickled (scan deltas and checkpoints) nor shared by clones.
    _plan = None

    def __post_init__(self) -> None:
        if self.class_counts is None:
            self.class_counts = np.zeros(self.n_classes, dtype=np.float64)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        state.pop("_plan", None)
        return state

    def update(
        self, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None
    ) -> None:
        """Add a batch of records to every histogram of this part.

        One native call fills them all when the kernels are available;
        the numpy body below is the reference.  ``weights`` are
        integer-valued per-record multiplicities (bootstrap draw
        counts); the weighted accumulation is exact and bit-identical to
        repeating each record ``weight`` times.  Callers drop zero-weight
        records beforehand.
        """
        if len(y) == 0:
            return
        if self._plan is None:
            self._plan = native_scan.part_plan(
                self.class_counts,
                [(j, h) for j, h in self.hists.items() if isinstance(h, ClassHistogram)],
                [(j, h) for j, h in self.hists.items() if isinstance(h, CategoryHistogram)],
            )
        if native_scan.fused_accum(self._plan, X, y, weights):
            return
        if weights is None:
            self.class_counts += np.bincount(y, minlength=self.n_classes)
        else:
            self.class_counts += np.bincount(
                y, weights=weights, minlength=self.n_classes
            )
        for attr, hist in self.hists.items():
            hist.update(X[:, attr], y, weights)

    def nbytes(self) -> int:
        """Memory footprint of all histograms."""
        return sum(h.nbytes() for h in self.hists.values())

    def clone_empty(self) -> "PartState":
        """Structural copy with zeroed counts (a worker's scan delta)."""
        return PartState(
            self.slot,
            self.n_classes,
            {j: h.clone_empty() for j, h in self.hists.items()},
        )

    def merge_from(self, other: "PartState") -> None:
        """Fold another part's counts into this one (exact, associative)."""
        self.class_counts += other.class_counts
        for j, hist in self.hists.items():
            hist.merge_from(other.hists[j])


def make_part_hists(
    schema: Schema, child_edges: dict[int, np.ndarray]
) -> dict[int, ClassHistogram | CategoryHistogram]:
    """Fresh histograms for one preliminary part.

    Continuous attributes use the per-split grid in ``child_edges``;
    categorical attributes get one bin per category.
    """
    hists: dict[int, ClassHistogram | CategoryHistogram] = {}
    for j, a in enumerate(schema.attributes):
        if a.is_continuous:
            hists[j] = ClassHistogram(child_edges[j], schema.n_classes)
        else:
            hists[j] = CategoryHistogram(a.cardinality, schema.n_classes)
    return hists


@dataclass
class RecordBuffer:
    """Alive-interval record buffer for one pending split.

    ``budget_bytes`` bounds the buffered bytes (0 = unbounded).  Crossing
    the budget *drops the whole buffer* and latches ``overflowed`` — the
    builder then falls back to re-collecting the records with an extra
    scan (the CLOUDS-style degradation: correctness preserved, one scan
    charged) instead of growing memory without bound.
    """

    X_chunks: list[np.ndarray] = field(default_factory=list)
    y_chunks: list[np.ndarray] = field(default_factory=list)
    rid_chunks: list[np.ndarray] = field(default_factory=list)
    n_records: int = 0
    budget_bytes: int = 0
    overflowed: bool = False

    def append(self, X: np.ndarray, y: np.ndarray, rids: np.ndarray) -> None:
        """Stash a batch of records (dropped once over budget)."""
        if len(y) == 0:
            return
        self.n_records += len(y)
        if self.overflowed:
            return
        self.X_chunks.append(np.array(X, copy=True))
        self.y_chunks.append(np.array(y, copy=True))
        self.rid_chunks.append(np.array(rids, copy=True))
        if self.budget_bytes and self.nbytes() > self.budget_bytes:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True

    def extend_from(self, other: "RecordBuffer") -> None:
        """Append another buffer's batches (worker-delta merge).

        Worker deltas carry this buffer's own ``budget_bytes``, so the
        merged buffer overflows exactly when a serial pass would have:
        either some worker already crossed the budget on its own, or the
        concatenated total does here.
        """
        self.n_records += other.n_records
        if self.overflowed:
            return
        if other.overflowed:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True
            return
        self.X_chunks.extend(other.X_chunks)
        self.y_chunks.extend(other.y_chunks)
        self.rid_chunks.extend(other.rid_chunks)
        if self.budget_bytes and self.nbytes() > self.budget_bytes:
            self.X_chunks.clear()
            self.y_chunks.clear()
            self.rid_chunks.clear()
            self.overflowed = True

    def concatenated(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Return (X, y, rids) as single arrays (possibly empty)."""
        if not self.y_chunks:
            p = self.X_chunks[0].shape[1] if self.X_chunks else 0
            return (
                np.empty((0, p)),
                np.empty(0, dtype=np.int64),
                np.empty(0, dtype=np.int64),
            )
        return (
            np.concatenate(self.X_chunks),
            np.concatenate(self.y_chunks),
            np.concatenate(self.rid_chunks),
        )

    def nbytes(self) -> int:
        """Approximate memory footprint of the buffered records."""
        return sum(c.nbytes for c in self.X_chunks) + sum(
            c.nbytes + 8 * len(c) for c in self.y_chunks
        )


@dataclass
class PendingSplit:
    """A split decided (possibly only estimated) but not yet materialized.

    ``exact_split`` is set for splits known exactly at decision time
    (categorical subsets, boundary splits with no alive interval); then the
    pending merely routes records into two parts on the next scan.
    Otherwise the split is *estimated*: records are routed into
    ``len(alive_bounds) + 1`` preliminary parts, alive-interval records are
    buffered, and the threshold is resolved after the scan.

    ``parts`` hold :class:`PartState` for CMP-S; CMP-B's subclass holds
    matrix parts.  ``child_edges`` are the CMP-S children's grids.
    """

    node: Node
    parent_slot: int
    child_edges: dict[int, np.ndarray] = field(default_factory=dict)
    exact_split: Split | None = None
    attr: int = -1
    zone_bounds: np.ndarray = field(default_factory=lambda: np.empty(0))
    alive_bounds: list[tuple[float, float]] = field(default_factory=list)
    alive_cum_below: list[np.ndarray] = field(default_factory=list)
    totals: np.ndarray = field(default_factory=lambda: np.empty(0))
    best_boundary_value: float | None = None
    best_boundary_gini: float = np.inf
    parts: list = field(default_factory=list)
    buffer: RecordBuffer = field(default_factory=RecordBuffer)

    def all_parts(self) -> list:
        """Every preliminary part this pending accumulates into."""
        return self.parts

    @property
    def n_parts(self) -> int:
        """Preliminary parts of a single-level split: two for an exact
        split, one per region around the alive intervals otherwise."""
        return 2 if self.exact_split is not None else len(self.alive_bounds) + 1

    def split_values(self, X: np.ndarray) -> np.ndarray:
        """The records' coordinates on the estimated split's axis."""
        return X[:, self.attr]

    def estimate(self) -> tuple:
        """The scan-time estimate :func:`resolve_exact_threshold` refines.

        Returns ``(totals, best_boundary_value, best_boundary_gini,
        alive_bounds, alive_cum_below)``.
        """
        return (
            self.totals,
            self.best_boundary_value,
            self.best_boundary_gini,
            self.alive_bounds,
            self.alive_cum_below,
        )

    def buffered(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Buffered ``(X, y, rids)`` and the records' split-axis values."""
        Xb, yb, rids = self.buffer.concatenated()
        return Xb, yb, rids, (self.split_values(Xb) if len(yb) else np.empty(0))

    def route(
        self,
        X: np.ndarray,
        y: np.ndarray,
        rids: np.ndarray,
        nid: np.ndarray,
        weights: np.ndarray | None = None,
    ) -> None:
        """Route this node's records of one chunk (Figure 4, lines 05-09).

        An exact split sends each record to one of its two parts.  An
        estimated split sends each preliminary region's records to that
        region's part and buffers the alive intervals' records.  New slots
        are written to ``nid``.  ``weights`` (bootstrap multiplicities)
        weight the part updates and repeat the buffered records.
        """
        if self.exact_split is not None:
            left = self.exact_split.goes_left(X)
            for part, m in zip(self.parts, (left, ~left)):
                _update_part(part, X, y, m, weights)
                nid[rids[m]] = part.slot
            return
        zones = classify_zones(self.split_values(X), self.zone_bounds)
        alive = (zones & 1) == 1
        if alive.any():
            self.buffer.append(
                *expand_weighted(
                    X[alive],
                    y[alive],
                    rids[alive],
                    None if weights is None else weights[alive],
                )
            )
        for r, part in enumerate(self.parts):
            m = zones == 2 * r
            if m.any():
                _update_part(part, X, y, m, weights)
                nid[rids[m]] = part.slot

    def collapse(self, remap: dict[int, int]) -> list:
        """Keep the node a leaf: its parts' records return to its slot."""
        for part in self.all_parts():
            remap[part.slot] = self.parent_slot
        return []

    def resolve_exact(self, remap: dict[int, int], account: TreeAccount) -> list:
        """Materialize a split known at decision time; ``(child, part)`` pairs."""
        lpart, rpart = self.parts
        if lpart.class_counts.sum() == 0 or rpart.class_counts.sum() == 0:
            # Degenerate in practice (can happen when the deciding
            # histogram was approximate at the edges): keep as a leaf.
            return self.collapse(remap)
        node = self.node
        node.split = self.exact_split
        node.left = account.new_node(node.depth + 1, lpart.class_counts.copy())
        node.right = account.new_node(node.depth + 1, rpart.class_counts.copy())
        return [(node.left, lpart), (node.right, rpart)]

    def scan_delta(self) -> "PendingSplit":
        """Structural clone with empty accumulators (one worker's delta).

        Decision-time fields (split, zones, part slots) are shared
        read-only; parts and buffer are fresh so each worker
        accumulates privately during a parallel scan.
        """
        return replace(
            self,
            parts=[part.clone_empty() for part in self.parts],
            buffer=RecordBuffer(budget_bytes=self.buffer.budget_bytes),
        )

    def merge_scan_delta(self, delta: "PendingSplit") -> None:
        """Fold one worker's delta in; callers merge in chunk order."""
        for part, dpart in zip(self.parts, delta.parts):
            part.merge_from(dpart)
        self.buffer.extend_from(delta.buffer)

    def parts_nbytes(self) -> int:
        """Bytes held by the preliminary parts (the ``parts/`` ledger entry)."""
        return sum(part.nbytes() for part in self.all_parts())

    def delta_nbytes(self) -> int:
        """Bytes one fresh scan delta occupies (buffers start empty)."""
        return self.parts_nbytes()

    def buffer_nbytes(self) -> int:
        """Bytes of buffered records after the scan (the ``buf/`` entry)."""
        return self.buffer.nbytes()

    def region_tops(self) -> list[float]:
        """Upper value bound of each preliminary region's part, in order."""
        return [lo for lo, __ in self.alive_bounds] + [np.inf]


def _update_part(
    part, X: np.ndarray, y: np.ndarray, m: np.ndarray, weights: np.ndarray | None
) -> None:
    """Add the records selected by ``m`` to ``part`` (weighted when given)."""
    if weights is None:
        part.update(X[m], y[m])
    else:
        part.update(X[m], y[m], weights[m])


def expand_weighted(
    X: np.ndarray, y: np.ndarray, rids: np.ndarray, weights: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Repeat each record ``weight`` times (unchanged without weights)."""
    if weights is None:
        return X, y, rids
    reps = weights.astype(np.int64)
    return np.repeat(X, reps, axis=0), np.repeat(y, reps), np.repeat(rids, reps)


def alive_run_bounds(
    hist: ClassHistogram, runs: list[tuple[int, int]]
) -> list[tuple[float, float]]:
    """Value bounds ``(lo, hi]`` of inclusive interval-index runs of ``hist``."""
    q = hist.n_intervals
    return [
        (
            -np.inf if i0 == 0 else float(hist.edges[i0 - 1]),
            np.inf if i1 == q - 1 else float(hist.edges[i1]),
        )
        for i0, i1 in runs
    ]


def estimated_fields(winner, hist: ClassHistogram, runs: list[tuple[int, int]]) -> dict:
    """:class:`PendingSplit` fields of a split estimated around ``runs``.

    ``winner`` is the split attribute's
    :class:`~repro.core.intervals.AttributeAnalysis` and ``hist`` its
    histogram at the node; ``runs`` are the merged alive-interval runs.
    """
    alive_bounds = alive_run_bounds(hist, runs)
    return dict(
        attr=winner.attr,
        zone_bounds=zone_boundaries(alive_bounds),
        alive_bounds=alive_bounds,
        alive_cum_below=[hist.cum_below(i0) for i0, __ in runs],
        totals=hist.totals(),
        best_boundary_value=(
            float(winner.edges[winner.best_boundary])
            if winner.has_boundaries
            else None
        ),
        best_boundary_gini=winner.gini_min,
    )


def adaptive_intervals(configured: int, n_records: float) -> int:
    """Grid size for a child node: never more than one interval per ~20
    records, floored at 4.

    The paper uses a fixed 100-120 intervals, but its nodes hold hundreds
    of thousands of records; deep nodes in a scaled-down run would waste
    memory (and, for CMP-B, quadratically so) on mostly-empty grids.
    Shrinking the grid with the node keeps per-interval populations
    comparable to the paper's regime; exactness is unaffected because
    alive-interval buffering resolves thresholds from the records
    themselves.
    """
    return int(max(4, min(configured, n_records // 20 + 1)))


# ---------------------------------------------------------------------------
# Zone arithmetic
# ---------------------------------------------------------------------------


def zone_boundaries(alive_bounds: list[tuple[float, float]]) -> np.ndarray:
    """Flattened zone boundary values for a set of alive intervals.

    ``A`` disjoint alive intervals ``(lo_i, hi_i]`` cut the attribute axis
    into ``2A + 1`` zones: region 0, alive 0, region 1, alive 1, …,
    region ``A``.  ``classify_zones`` maps values to zone indices; even
    indices are regions (preliminary subnodes), odd indices alive intervals
    (buffered records).
    """
    flat: list[float] = []
    prev_hi = -np.inf
    for lo, hi in alive_bounds:
        if not lo < hi:
            raise ValueError(f"alive interval ({lo}, {hi}] is empty")
        if lo < prev_hi:
            raise ValueError("alive intervals must be disjoint and sorted")
        flat.extend((lo, hi))
        prev_hi = hi
    return np.asarray(flat, dtype=np.float64)


def classify_zones(values: np.ndarray, boundaries: np.ndarray) -> np.ndarray:
    """Zone index per value (see :func:`zone_boundaries`)."""
    return np.searchsorted(boundaries, values, side="left")


# ---------------------------------------------------------------------------
# Exact resolution of an estimated split
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResolvedThreshold:
    """Outcome of :func:`resolve_exact_threshold`."""

    threshold: float
    gini: float
    #: True when the winning point came from inside an alive interval.
    from_buffer: bool
    #: Candidate thresholds examined (best boundary + distinct buffered
    #: values); feeds the MDL split-encoding value term.
    n_candidates: int = 1


def resolve_exact_threshold(
    totals: np.ndarray,
    best_boundary_value: float | None,
    best_boundary_gini: float,
    alive_bounds: list[tuple[float, float]],
    alive_cum_below: list[np.ndarray],
    buf_values: np.ndarray,
    buf_labels: np.ndarray,
) -> ResolvedThreshold | None:
    """Find the exact best threshold for an estimated split (§2.1).

    Combines the node's best interval-boundary gini (already exact — and,
    by the alive-selection rule, always the edge of a preliminary region)
    with candidate points inside the alive intervals, reconstructed from
    the buffered records: for a sorted buffered prefix ending at value
    ``v``, the left side of the split ``a <= v`` is the cumulative class
    count below the interval plus the prefix's class counts.  Boundaries
    other than the best one can never win (their gini is >= the best
    boundary's by definition), so they need not be candidates — which also
    guarantees the resolved threshold never straddles a preliminary
    subnode.

    Parameters
    ----------
    totals:
        ``(c,)`` class counts of the node.
    best_boundary_value / best_boundary_gini:
        The node's best non-degenerate boundary (``None`` / ``inf`` when
        every boundary is degenerate).
    alive_bounds / alive_cum_below:
        Value bounds and below-interval cumulative class counts for each
        alive interval, in order.
    buf_values / buf_labels:
        Attribute values and labels of all buffered records of the node.

    Returns ``None`` when no valid split exists at all.
    """
    totals = np.asarray(totals, dtype=np.float64)
    best_gini = np.inf
    best_thr = np.nan
    best_from_buffer = False
    n_candidates = 0
    if best_boundary_value is not None and np.isfinite(best_boundary_gini):
        best_gini = float(best_boundary_gini)
        best_thr = float(best_boundary_value)
        n_candidates = 1

    n_classes = len(totals)
    for (lo, hi), cum_below in zip(alive_bounds, alive_cum_below):
        in_interval = (buf_values > lo) & (buf_values <= hi)
        # Candidates: after the last record of each distinct value.  The
        # final record's threshold equals the interval's upper-boundary
        # split, which the boundary ginis already cover (when valid).
        thresholds, left = prefix_cuts(
            buf_values[in_interval], buf_labels[in_interval], cum_below, n_classes
        )
        if len(thresholds) == 0:
            continue
        n_candidates += len(thresholds)
        best = best_cut(left, totals)
        if best is None:
            continue
        t, g = best
        if g < best_gini - 1e-15:
            best_gini = g
            best_thr = float(thresholds[t])
            best_from_buffer = True
    if not np.isfinite(best_gini):
        return None
    return ResolvedThreshold(best_thr, best_gini, best_from_buffer, n_candidates)


def prefix_cuts(
    values: np.ndarray,
    labels: np.ndarray,
    base: np.ndarray,
    n_classes: int,
    include_last: bool = False,
) -> tuple[np.ndarray, np.ndarray]:
    """Cut points of a run of buffered records and the class counts left of each.

    The records are sorted stably by value.  A cut falls after the last
    record of each distinct value; the cut after the run's final record
    is included only with ``include_last``.  Returns the cut thresholds
    ``(k,)`` and, per cut, ``base`` plus the class counts of the sorted
    prefix ``(k, n_classes)``.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    onehot = np.zeros((len(v), n_classes), dtype=np.float64)
    onehot[np.arange(len(v)), labels[order]] = 1.0
    cum = np.cumsum(onehot, axis=0) + base[None, :]
    cuts = np.nonzero(v[:-1] < v[1:])[0]
    if include_last and len(v):
        cuts = np.append(cuts, len(v) - 1)
    return v[cuts], cum[cuts]


def best_cut(left: np.ndarray, totals: np.ndarray) -> tuple[int, float] | None:
    """Index and gini of the best valid candidate split, or ``None``.

    ``left`` holds each candidate's left-side class counts; a candidate
    is valid when both sides are non-empty.  Ties go to the first
    candidate.
    """
    n = totals.sum()
    nl = left.sum(axis=1)
    valid = (nl > 0) & (nl < n)
    if not valid.any():
        return None
    ginis = np.asarray(gini_partition(left, totals[None, :] - left), dtype=np.float64)
    ginis = np.where(valid, ginis, np.inf)
    k = int(np.argmin(ginis))
    return k, float(ginis[k])


# ---------------------------------------------------------------------------
# The level-synchronous driver (CMP-S, CMP-B, CMP, CLOUDS; shared with bagging)
# ---------------------------------------------------------------------------


def apply_remap(nid: np.ndarray, remap: dict[int, int]) -> None:
    """Rewrite ``nid`` slots through ``remap`` (others map to themselves).

    Merged preliminary parts hand their records to the surviving child's
    slot.  The lookup is shifted by one so a ``-1`` sentinel (a bagged
    member's never-drawn records) stays ``-1``.
    """
    if not remap:
        return
    upper = max(int(nid.max()), max(remap))
    lookup = np.arange(-1, upper + 1, dtype=np.int64)
    for src, dst in remap.items():
        lookup[src + 1] = dst
    nid[:] = lookup[nid + 1]


def public_pass(root: Node, pendings: dict[int, PendingSplit]) -> dict[int, PendingSplit]:
    """Integrated PUBLIC(1) pruning between levels.

    Drops the pendings of frontier nodes that the pass closed.
    """
    from repro.pruning.public import public_prune_pass

    open_ids = {p.node.node_id for p in pendings.values()}
    removed = public_prune_pass(root, open_ids)
    if not removed:
        return pendings
    return {slot: p for slot, p in pendings.items() if p.node.node_id not in removed}


def refill_overflowed(
    table,
    engine: ScanEngine,
    stats: BuildStats,
    n: int,
    groups: list[tuple[np.ndarray, np.ndarray | None, list[PendingSplit]]],
) -> None:
    """Re-collect dropped alive-interval records with one extra scan.

    The CLOUDS-style degradation path: when a node's alive buffer blew
    its memory budget during the level's scan, its records are
    recoverable — alive records keep their parent's ``nid`` slot (only
    preliminary-region records were reassigned).  One shared pass
    (chunk-parallel like any other scan; worker sub-buffers concatenate
    in chunk order) refills every overflowed buffer, preserving the exact
    append order of the un-budgeted path, so resolution — and the final
    tree — is unchanged; only the extra scan is charged.

    Each group is one tree's ``(nid column, per-record weights or None,
    overflowed pendings)``.  Weighted records are appended ``weight``
    times, as the bagged forest's routing does.
    """
    stats.buffer_overflow_rescans += 1
    by_key: dict[tuple[int, int], PendingSplit] = {}
    for g, (__, __, overflowed) in enumerate(groups):
        for p in overflowed:
            p.buffer = RecordBuffer()  # unbounded: contents fit by paper's premise
            by_key[(g, p.parent_slot)] = p

    def route(chunk: ScanChunk, buffers: dict[tuple[int, int], RecordBuffer]) -> None:
        for (g, slot), buf in buffers.items():
            nid, weights, __ = groups[g]
            mask = nid[chunk.start : chunk.stop] == slot
            if mask.any():
                w = None if weights is None else weights[chunk.start : chunk.stop][mask]
                buf.append(
                    *expand_weighted(chunk.X[mask], chunk.y[mask], chunk.rids[mask], w)
                )

    engine.scan(
        table,
        route=route,
        live={key: p.buffer for key, p in by_key.items()},
        make_delta=lambda: {key: RecordBuffer() for key in by_key},
        merge_delta=lambda delta: [
            by_key[key].buffer.extend_from(buf) for key, buf in delta.items()
        ],
    )
    stats.io.count_aux_read(n * len(groups))


#: What :meth:`LevelBuilder._decide` returns: the pending split, ``None``
#: for a leaf, or a generator that yields more ``(attr, histogram)`` pairs,
#: receives their analyses and returns the pending split.
Decision = (
    PendingSplit
    | None
    | Generator[list[tuple[int, ClassHistogram]], list[AttributeAnalysis], PendingSplit]
)


@dataclass
class Member:
    """One tree grown by :meth:`LevelBuilder._grow`.

    ``builder`` supplies the tree's strategy (root accumulator, decisions,
    resolution); ``weights`` are its per-record bootstrap multiplicities,
    ``None`` for a solo build; ``prefix`` namespaces its memory-ledger
    keys, since node ids restart at zero in every tree; ``rng`` feeds its
    quantiling reservoirs and root accumulator.  The remaining fields are
    the tree's loop state; ``nid`` is its column of the shared map, and
    never-drawn records hold ``-1`` there.
    """

    builder: "LevelBuilder"
    weights: np.ndarray | None
    prefix: str
    rng: np.random.Generator
    account: TreeAccount = field(default_factory=TreeAccount)
    next_slot: SlotCounter = field(default_factory=SlotCounter)
    root: Node | None = None
    nid: np.ndarray | None = None
    pendings: dict[int, PendingSplit] = field(default_factory=dict)


class LevelBuilder(TreeBuilder):
    """The level-synchronous driver: one routing scan per tree level.

    Two scans precede the loop: a quantiling pass that fixes the root
    interval grid (charged to CLOUDS identically, see DESIGN.md §3) and
    the root-accumulator pass (Figures 4 and 10, line 03).  Then each
    level makes one scan that routes every record from its pending parent
    into preliminary parts and buffers alive-interval records, followed
    by resolution of the exact splits and the children's decisions.

    The driver, :meth:`_grow`, grows a list of :class:`Member` trees with
    the same scans: one member for a solo build, one per bootstrap draw
    for the bagged forest.  Builders supply the strategy:

    * :meth:`_root_part` — the root accumulator scan 2 fills;
    * :meth:`_collect` — the histograms a node's decision needs analysed;
    * :meth:`_decide` — a node's pending split from those analyses, or
      ``None`` for a leaf;
    * :meth:`_resolve` — a scanned pending's children and their parts;
    * :meth:`_ready` — optional: settles pendings that wait on a pass of
      their own before the live check (CLOUDS-SSE's exact scan).

    CMP-S, CMP-B and CMP route preliminary parts and resolve after the
    scan.  CLOUDS knows each split exactly before routing: its decision
    creates the children, SSE's exact pass runs in :meth:`_ready`, and
    the level scan only fills the growing children's histograms.

    Each level's post-scan step runs in three stages (:meth:`_step`):
    resolve every live member's pendings; analyse every child's collected
    histograms in **one** :func:`~repro.core.intervals.analyze_attributes`
    call; decide the children in order.  A decision that needs a second
    round of analyses — CMP-B's per-side second splits — returns a
    generator that yields its histograms and receives their analyses;
    all such generators of a level share one more batched call.  The
    memory ledger is then replayed in per-pending order, as if each
    pending had been resolved and its children decided one at a time.

    Bookkeeping follows the paper: the training set is never sorted,
    copied or modified; a ``nid`` array maps each record to its node
    (slot) and is charged as disk-swapped auxiliary I/O.
    """

    supports_integrated_pruning = True
    supports_checkpointing = True

    def _build(self, dataset: Dataset, stats: BuildStats) -> DecisionTree:
        solo = Member(self, None, "", np.random.default_rng(self.config.seed))
        (tree,) = self._grow(dataset, stats, [solo])
        return tree

    def _validate(self, dataset: Dataset) -> None:
        """Reject configurations or data the builder cannot handle."""
        if self.config.criterion != "gini":
            raise ValueError(f"{self.name} supports only the gini criterion")

    # -- strategy hooks (called on each member's builder) ----------------------

    def _root_part(
        self,
        schema: Schema,
        root_edges: dict[int, np.ndarray],
        rng: np.random.Generator,
    ):
        """The root accumulator (slot 0) on the quantiled root grid."""
        raise NotImplementedError

    def _route_chunk(
        self,
        chunk: ScanChunk,
        nid: np.ndarray,
        pendings: dict[int, PendingSplit],
        weights: np.ndarray | None = None,
    ) -> None:
        """Route one chunk's records through one tree's pending splits.

        The chunk is sorted by slot once (stably, so each slot's records
        keep their record order); every pending then routes one
        contiguous run of that order.  ``weights`` (one per table record)
        are the bagged forest's bootstrap multiplicities; its never-drawn
        records carry a negative ``nid`` and so match no pending.
        """
        if not pendings:
            return
        slots = nid[chunk.start : chunk.stop]
        order = np.argsort(slots, kind="stable")
        keys = np.fromiter(pendings, dtype=slots.dtype, count=len(pendings))
        sorted_slots = slots[order]
        los = np.searchsorted(sorted_slots, keys, side="left").tolist()
        his = np.searchsorted(sorted_slots, keys, side="right").tolist()
        if weights is not None:
            weights = weights[chunk.start : chunk.stop]
        for p, lo, hi in zip(pendings.values(), los, his):
            if lo < hi:
                idx = order[lo:hi]
                p.route(
                    chunk.X[idx],
                    chunk.y[idx],
                    chunk.rids[idx],
                    nid,
                    None if weights is None else weights[idx],
                )

    def _stops(self, node: Node) -> bool:
        """True when a stopping rule makes ``node`` a leaf outright."""
        cfg = self.config
        return (
            node.n_records < cfg.min_records
            or node.gini <= cfg.min_gini
            or node.depth >= cfg.max_depth
        )

    def _collect(
        self, node: Node, part
    ) -> list[tuple[int, ClassHistogram | CategoryHistogram]]:
        """The ``(attr, histogram)`` pairs :meth:`_decide` needs answered:
        class histograms analysed, category histograms' subset splits.

        Returns ``[]`` when a stopping rule leafs the node.
        """
        raise NotImplementedError

    def _decide(
        self,
        node: Node,
        part,
        answers: list[AttributeAnalysis | SubsetSplit],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> Decision:
        """Pick the node's split from its complete accumulator, or leaf it.

        ``answers`` answer :meth:`_collect`'s pairs, in order.
        """
        raise NotImplementedError

    def _resolve(
        self,
        p: PendingSplit,
        nid: np.ndarray,
        remap: dict[int, int],
        next_slot: Callable[[], int],
        account: TreeAccount,
        schema: Schema,
        stats: BuildStats,
    ) -> list[tuple[Node, object]]:
        """Materialize a scanned pending; returns ``(child, part)`` pairs."""
        raise NotImplementedError

    def _ready(
        self,
        table,
        engine: ScanEngine,
        stats: BuildStats,
        schema: Schema,
        members: list[Member],
    ) -> list[Member]:
        """The members whose pendings the next level scan routes.

        Runs before every level's live check, so a builder may settle
        pendings that wait on work of their own (CLOUDS's exact pass)
        and end the build when none is left.
        """
        return [m for m in members if m.pendings]

    # -- the loop --------------------------------------------------------------

    def _grow(
        self, dataset: Dataset, stats: BuildStats, members: list[Member]
    ) -> list[DecisionTree]:
        """Grow every member's tree, one shared table scan per level.

        Each level's scan routes every member that still has pendings;
        then each member takes its post-scan step with its own builder.
        Checkpoints cover solo builds (the bagged forest refuses a
        checkpoint path).
        """
        self._validate(dataset)
        cfg = self.config
        schema = dataset.schema
        table = self._open_table(dataset, stats)
        ckpt = self._checkpointer(dataset)

        def checkpoint(level: int) -> None:
            if ckpt is not None:
                (m,) = members
                state = loop_state(m.account, m.root, m.nid, m.pendings, m.next_slot)
                with stats.phase("checkpoint"):
                    self._settle_counters(stats, engine)
                    ckpt.save(level, state, stats)

        with self._scan_engine(stats) as engine:
            if ckpt is not None and cfg.resume and ckpt.exists():
                level, state = ckpt.load(stats)
                # The restored counts cover the build up to the checkpoint;
                # this run counts its own work from here.
                stats.kernel_calls_mark = native_scan.kernel_calls_total()
                engine.batches_dispatched = 0
                (m,) = members
                m.account, m.root, m.nid = state["account"], state["root"], state["nid"]
                m.pendings, m.next_slot = state["pendings"], state["next_slot"]
                nid = m.nid
            else:
                nid = self._plant(table, engine, stats, schema, members)
                level = 0
                checkpoint(level)

            # --- One scan per level. ---------------------------------------
            # A level's extra passes (``_ready``) file under its span.
            live = self._ready(table, engine, stats, schema, members)
            while live:
                stats.shared_level_scans += 1
                with stats.tracer.span(
                    "level",
                    level=level + 1,
                    members=len(live),
                    pendings=sum(len(m.pendings) for m in live),
                ):
                    self._scan_level(table, engine, stats, nid, live)
                    for m in live:
                        for p in m.pendings.values():
                            stats.memory.allocate(
                                f"{m.prefix}buf/{p.node.node_id}", p.buffer_nbytes()
                            )
                    with stats.phase("resolve"):
                        self._step(live, schema, stats)
                    level += 1
                    checkpoint(level)
                    live = self._ready(table, engine, stats, schema, members)

        if ckpt is not None:
            ckpt.clear()
        return [DecisionTree(m.root, schema) for m in members]

    def _plant(
        self,
        table,
        engine: ScanEngine,
        stats: BuildStats,
        schema: Schema,
        members: list[Member],
    ) -> np.ndarray:
        """Scans 1 and 2: every member's root grid, root node and root pending.

        Returns the shared ``nid`` map: one column per member, or a plain
        vector for a solo build.
        """
        n = table.n_records
        nid = np.zeros(n if len(members) == 1 else (n, len(members)), dtype=np.int64)

        # --- Scan 1: quantiling pass (root grids + class totals). ----------
        with stats.phase("scan"):
            quantiled = self._quantile_scan(
                table, schema, [(m.weights, m.rng) for m in members]
            )
        parts = []
        # reshape(n, -1).T yields writable per-member column views of nid.
        for m, column, (totals, root_edges) in zip(
            members, nid.reshape(n, -1).T, quantiled
        ):
            m.root = m.account.new_node(0, totals)
            m.nid = column
            if m.weights is not None:
                column[m.weights == 0] = -1
            parts.append(m.builder._root_part(schema, root_edges, m.rng))
            stats.memory.allocate(f"{m.prefix}hist/root", parts[-1].nbytes())

        # --- Scan 2: root accumulators. --------------------------------------
        def route(chunk: ScanChunk, tgt: list) -> None:
            for m, part in zip(members, tgt):
                if m.weights is None:
                    part.update(chunk.X, chunk.y)
                    continue
                w = m.weights[chunk.start : chunk.stop]
                drawn = w > 0
                if drawn.any():
                    part.update(chunk.X[drawn], chunk.y[drawn], w[drawn])

        with stats.phase("scan"):
            engine.scan(
                table,
                route=route,
                live=parts,
                make_delta=lambda: [part.clone_empty() for part in parts],
                merge_delta=lambda delta: [
                    part.merge_from(d) for part, d in zip(parts, delta)
                ],
                memory=stats.memory,
                delta_nbytes=sum(part.nbytes() for part in parts),
            )
        stats.io.count_nid_swap(n * len(members))

        with stats.phase("resolve"):
            firsts = self._decide_all(
                [(m, m.root, part) for m, part in zip(members, parts)], schema, stats
            )
            for m, first in zip(members, firsts):
                if first is not None:
                    stats.memory.allocate(
                        f"{m.prefix}parts/{m.root.node_id}", first.parts_nbytes()
                    )
                    m.pendings[0] = first
                stats.memory.release(f"{m.prefix}hist/root")
        return nid

    def _scan_level(
        self,
        table,
        engine: ScanEngine,
        stats: BuildStats,
        nid: np.ndarray,
        live: list[Member],
    ) -> None:
        """One level's scan, shared by every member that is still growing.

        Workers route private deltas that merge in chunk order and write
        new slots back into ``nid``.  The node-id swap is charged per
        member, and buffers that overflowed their budget are refilled by
        one extra scan.
        """
        n = len(nid)
        pendings = [m.pendings for m in live]

        def route(chunk: ScanChunk, tgt: list[dict[int, PendingSplit]]) -> None:
            for m, d in zip(live, tgt):
                self._route_chunk(chunk, m.nid, d, m.weights)

        with stats.phase("scan"):
            engine.scan(
                table,
                route=route,
                live=pendings,
                make_delta=lambda: [
                    {slot: p.scan_delta() for slot, p in d.items()} for d in pendings
                ],
                merge_delta=lambda delta: [
                    d[slot].merge_scan_delta(dp)
                    for d, dd in zip(pendings, delta)
                    for slot, dp in dd.items()
                ],
                memory=stats.memory,
                delta_nbytes=sum(p.delta_nbytes() for d in pendings for p in d.values()),
                writeback=nid,
            )
        stats.io.count_nid_swap(n * len(live))
        overflowed = [
            (m.nid, m.weights, ps)
            for m in live
            if (ps := [p for p in m.pendings.values() if p.buffer.overflowed])
        ]
        if overflowed:
            with stats.phase("scan"):
                refill_overflowed(table, engine, stats, n, overflowed)

    def _decide_all(
        self,
        todo: list[tuple[Member, Node, object]],
        schema: Schema,
        stats: BuildStats,
    ) -> list[PendingSplit | None]:
        """Decide ``(member, node, part)`` triples in order, emptying ``todo``.

        One batched analysis serves every node's :meth:`_collect`, and
        one more each round serves the decisions still waiting on
        analyses.  Each member's own builder decides its nodes.  A part
        is dropped once decided, so the level's resolved parts are not
        all held until the last decision.
        """
        requests = [m.builder._collect(node, part) for m, node, part in todo]
        answers = _analyze_batched(requests, stats)
        requests.clear()
        outcomes: list = []
        for i, (m, node, part) in enumerate(todo):
            analyses, todo[i], answers[i] = answers[i], None, None
            outcomes.append(
                m.builder._decide(
                    node, part, analyses, m.next_slot, m.account, schema, stats
                )
            )
        waiting = {
            i: next(o) for i, o in enumerate(outcomes) if isinstance(o, GeneratorType)
        }
        while waiting:
            answers = _analyze_batched(list(waiting.values()), stats)
            still: dict[int, list] = {}
            for i, analyses in zip(waiting, answers):
                try:
                    still[i] = outcomes[i].send(analyses)
                except StopIteration as done:
                    outcomes[i] = done.value
            waiting = still
        return outcomes

    def _step(self, live: list[Member], schema: Schema, stats: BuildStats) -> None:
        """Every live member's post-scan step; sets its next pendings.

        Resolves every scanned pending, decides all children with one
        batched analysis, then, per member and pending in order, charges
        the ledger, remaps merged parts in ``nid`` and, under
        ``prune="public"``, runs the PUBLIC(1) pass for builders with
        integrated pruning (CLOUDS prunes post hoc).  The ledger sees
        exactly the sequence of a pending-by-pending step: release the
        pending's ``parts/`` and ``buf/``, then per child allocate its
        ``hist/``, its new pending's ``parts/`` and release the ``hist/``.
        Resolution never touches the ledger.
        """
        resolved = []
        todo: list[tuple[Member, Node, object]] = []
        for m in live:
            remap: dict[int, int] = {}
            done = []
            for p in m.pendings.values():
                kids = m.builder._resolve(
                    p, m.nid, remap, m.next_slot, m.account, schema, stats
                )
                todo.extend((m, child, part) for child, part in kids)
                # What the ledger replay needs of each child, so its part
                # can be freed as soon as it is decided.
                done.append(
                    (p, [(kid.node_id, part.nbytes(), part.slot) for kid, part in kids])
                )
            resolved.append((m, remap, done))
        decided = iter(self._decide_all(todo, schema, stats))
        for m, remap, done in resolved:
            new_pendings: dict[int, PendingSplit] = {}
            for p, kids in done:
                stats.memory.release(f"{m.prefix}parts/{p.node.node_id}")
                stats.memory.release(f"{m.prefix}buf/{p.node.node_id}")
                for node_id, nbytes, slot in kids:
                    q = next(decided)
                    stats.memory.allocate(f"{m.prefix}hist/{node_id}", nbytes)
                    if q is not None:
                        stats.memory.allocate(
                            f"{m.prefix}parts/{node_id}", q.parts_nbytes()
                        )
                        new_pendings[slot] = q
                    stats.memory.release(f"{m.prefix}hist/{node_id}")
            apply_remap(m.nid, remap)
            if (
                m.builder.supports_integrated_pruning
                and m.builder.config.prune == "public"
            ):
                new_pendings = public_pass(m.root, new_pendings)
            m.pendings = new_pendings


def _analyze_batched(
    requests: list[list[tuple[int, ClassHistogram | CategoryHistogram]]],
    stats: BuildStats,
) -> list[list[AttributeAnalysis | SubsetSplit]]:
    """Answer every request's pairs with one call per kind; split them back.

    Class histograms get their :class:`AttributeAnalysis` from one
    :func:`analyze_attributes` call, category histograms their
    :class:`SubsetSplit` from one :func:`best_subset_splits` call; each
    answer keeps its pair's position.
    """
    items = [item for request in requests for item in request]
    is_cat = [isinstance(h, CategoryHistogram) for __, h in items]
    answers = iter(
        analyze_attributes(
            [item for item, cat in zip(items, is_cat) if not cat], stats.tracer
        )
    )
    subsets = iter(best_subset_splits([item for item, cat in zip(items, is_cat) if cat]))
    flat = [next(subsets) if cat else next(answers) for cat in is_cat]
    out, at = [], 0
    for request in requests:
        out.append(flat[at : at + len(request)])
        at += len(request)
    return out


__all__ = [
    "BuildResult",
    "TreeBuilder",
    "LevelBuilder",
    "Member",
    "PartState",
    "PendingSplit",
    "RecordBuffer",
    "ResolvedThreshold",
    "make_part_hists",
    "zone_boundaries",
    "classify_zones",
    "resolve_exact_threshold",
    "TreeAccount",
    "Node",
    "DecisionTree",
]
