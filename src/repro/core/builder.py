"""Shared machinery for scan-based tree builders.

Every classifier in this repository is *level-synchronous*: it repeatedly
scans the (simulated) disk-resident training set, routing each record to the
frontier node it belongs to, and grows the tree between scans.  This module
holds the pieces common to the CMP family and the baselines:

* :class:`BuildResult` — what ``build()`` returns.
* :class:`TreeBuilder` — the abstract base and the one build wrapper of
  every builder, solo or ensemble: timing, the ``build`` span, pruning
  and the node/leaf/level tallies.
* :class:`PartState` — a preliminary part, laid out with the rest of
  its level in one :class:`~repro.core.arena.LevelArena`.
* :class:`LevelBuilder` — the level driver of CMP-S, CMP-B, CMP, CLOUDS
  and the bagged forest: the quantiling scan, the level loop (whose
  first scan fills the roots), overflow rescans, slot remapping,
  PUBLIC(1) pruning and checkpoints, run over one :class:`Member` per
  tree.  Subclasses supply only their root accumulator, the histograms
  a decision needs, the decision and resolution (and CLOUDS its exact
  pass); the driver analyses a whole level's histograms at once.
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
from repro.core import native_scan
from repro.core.arena import ArenaPart, LevelArena
from repro.core.gini import best_cut, prefix_cuts
from repro.core.matrix import MatrixSet
from repro.core.parallel import ScanEngine
from repro.core.histogram import (
    CategoryHistogram,
    ClassHistogram,
    SubsetSplit,
    best_subset_splits,
)
from repro.core.intervals import AttributeAnalysis, analyze_attributes
from repro.core.splits import NumericSplit, Split
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


class PartState(ArenaPart):
    """One preliminary subnode being populated during a scan.

    A CMP-S or CLOUDS part holds one histogram per attribute
    (``hists``); a CMP-B or CMP part holds a :class:`MatrixSet`
    (``mset``), whose ``marginals`` wait here from ``_collect`` to
    ``_decide``.  Its :attr:`accumulator` is what a level arena lays
    out.  A part built from histograms takes only their shape.
    """

    def __init__(
        self,
        slot: int,
        n_classes: int,
        hists: dict[int, ClassHistogram | CategoryHistogram] | None = None,
        *,
        mset: MatrixSet | None = None,
        grids: tuple[Schema, dict[int, np.ndarray] | None] | None = None,
    ) -> None:
        self.slot = slot
        self.n_classes = n_classes
        self.hists = {} if hists is None else hists
        self.mset = mset
        self.marginals: dict[int, ClassHistogram] | None = None
        self._counts: np.ndarray | None = None
        #: ``(attr, edges or n_categories)`` per histogram, in order.
        self._shape: list[tuple[int, np.ndarray | int]] = [
            (j, h.edges if isinstance(h, ClassHistogram) else h.n_categories)
            for j, h in self.hists.items()
        ]
        if grids is not None and grids[1] is not None:
            schema, edges = grids
            self._shape = [
                (j, np.ascontiguousarray(edges[j], dtype=np.float64) if a.is_continuous else a.cardinality)
                for j, a in enumerate(schema.attributes)
            ]

    @classmethod
    def planned(
        cls,
        slot: int,
        schema: Schema,
        edges: dict[int, np.ndarray] | None = None,
        x_attr: int | None = None,
    ) -> "PartState":
        """A part laid out with its level: per-attribute histograms on
        ``edges``, a matrix set on X axis ``x_attr`` too when given, or
        class counts only without ``edges``."""
        if x_attr is not None:
            return cls(slot, schema.n_classes, mset=MatrixSet.planned(schema, x_attr, edges))
        return cls(slot, schema.n_classes, grids=(schema, edges))

    @property
    def accumulator(self) -> "PartState | MatrixSet":
        """What counts the part's records: its matrix set, or itself."""
        return self if self.mset is None else self.mset

    @property
    def class_counts(self) -> np.ndarray:
        """Class counts of the records added so far."""
        acc = self.accumulator
        acc.laid_out()
        return self._counts if acc is self else acc.class_counts

    def _spec(self) -> tuple:
        if self.mset is not None:
            return self.mset._spec()
        conts = [(j, e) for j, e in self._shape if isinstance(e, np.ndarray)]
        cats = [(j, k) for j, k in self._shape if not isinstance(k, np.ndarray)]
        return self.n_classes, None, conts, cats

    def _bind(self, views: list) -> None:
        c, __, conts, cats = self._spec()
        it = iter(views)
        self._counts = next(it)
        made: dict[int, ClassHistogram | CategoryHistogram] = {}
        for j, edges in conts:
            made[j] = ClassHistogram(edges, c, next(it), *next(it))
        for j, k in cats:
            made[j] = CategoryHistogram(k, c, next(it))
        self.hists = {j: made[j] for j, __ in self._shape}

    def update(
        self, X: np.ndarray, y: np.ndarray, weights: np.ndarray | None = None, arena=None
    ) -> None:
        """Add a batch of records to every histogram of this part.

        One native call on the part's slice of its level's plan fills
        them all when the kernels are available (see
        :meth:`LevelArena.accumulate`).  ``weights`` are integer-valued
        per-record multiplicities (bootstrap draw counts), exact and
        bit-identical to repeating each record ``weight`` times; callers
        drop zero-weight records.  A worker's delta ``arena`` takes the
        counts instead of the part's own.
        """
        if self.mset is not None:
            self.mset.update(X, y, weights, arena)
        else:
            self._accumulate(X, y, weights, arena)

    def merge_from(self, other: "PartState") -> None:
        """Fold another part's counts into this one (exact, associative):
        a row-range add in the arena."""
        if self.mset is not None:
            self.mset.merge_from(other.mset)
            return
        for (__, mine), (__, theirs) in zip(self._shape, other._shape):
            if isinstance(mine, np.ndarray) and not (
                mine is theirs or np.array_equal(mine, theirs)
            ):
                raise ValueError("histograms must share edges to merge")
        self._merge_rows(other)


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
        self._check_budget()

    def _check_budget(self, overflowed: bool = False) -> None:
        """Drop the whole buffer once it (or a delta) crossed the budget."""
        if overflowed or (self.budget_bytes and self.nbytes() > self.budget_bytes):
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
        self.X_chunks.extend(other.X_chunks)
        self.y_chunks.extend(other.y_chunks)
        self.rid_chunks.extend(other.rid_chunks)
        self._check_budget(other.overflowed)

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

    A pending with one part and no split — a member's root before the
    first level scan, or a CMP-B side that does not split again — routes
    all its records to that part.  A copy with no parts, which the
    overflow refill routes, only buffers its alive records.

    ``parts`` hold :class:`PartState` for CMP-S and matrix parts for
    CMP-B, whose two-level sides are plain pendings too (their ``node``
    is set when the side's child is made at resolution).
    ``child_edges`` are the CMP-S children's grids.
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

    def with_sides(self) -> list["PendingSplit"]:
        """This pending and every pending it routes into (CMP-B sides)."""
        return [self]

    def all_parts(self) -> list:
        """Every preliminary part this pending accumulates into."""
        return [part for q in self.with_sides() for part in q.parts]

    @property
    def n_parts(self) -> int:
        """Preliminary parts of a single-level split: two for an exact
        split, one per region around the zone bounds' alive intervals (or
        a linear split's band) otherwise.  A root pending has one."""
        return 2 if self.exact_split is not None else len(self.zone_bounds) // 2 + 1

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
        delta: "PendingScan | None" = None,
    ) -> None:
        """Route this node's records of one chunk (Figure 4, lines 05-09).

        An exact split sends each record to one of its two parts.  An
        estimated split sends each preliminary region's records to that
        region's part and buffers the alive intervals' records.  New slots
        are written to ``nid``.  ``weights`` (bootstrap multiplicities)
        weight the part updates and repeat the buffered records.  A
        worker's ``delta`` takes the counts and buffered records instead
        of the parts' own arena and this pending's buffer.
        """
        arena = None if delta is None else delta.arena
        if self.exact_split is not None:
            left = self.exact_split.goes_left(X)
            for part, m in zip(self.parts, (left, ~left)):
                _update_part(part, X, y, m, weights, arena)
                nid[rids[m]] = part.slot
            return
        zones = classify_zones(self.split_values(X), self.zone_bounds)
        alive = (zones & 1) == 1
        if alive.any():
            (self.buffer if delta is None else delta.buffer(self)).append(
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
                _update_part(part, X, y, m, weights, arena)
                nid[rids[m]] = part.slot

    def collapse(self, remap: dict[int, int]) -> list:
        """Keep the node a leaf: its parts' records return to its slot."""
        for part in self.all_parts():
            remap[part.slot] = self.parent_slot
        return []

    def resolve_exact(self, remap: dict[int, int], account: TreeAccount) -> list:
        """Materialize a split known at decision time; ``(child, part)`` pairs."""
        return self.settle(self.exact_split, self.parts, remap, account)

    def fold_regions(self, threshold: float, remap: dict[int, int]) -> list:
        """Fold each side of ``threshold`` into its first region part.

        A region whose top is at most ``threshold`` lies left of the
        split, the others right (Figure 4, lines 11-13).  Each side's
        first part becomes that side's child accumulator in place: the
        side's other parts merge into it in region order (a row-range add
        in the level arena) and their slots remap to it.  Both sides always have a region part: the resolved
        threshold is the best boundary, an edge of the alive interval
        next to it, or a buffered value above an alive interval's lower
        edge, so it is at least the first region's top, and the last
        region's top is ``inf``.  Returns the ``[left, right]`` targets.
        """
        sides: tuple[list, list] = ([], [])
        for part, top in zip(self.parts, self.region_tops()):
            sides[top > threshold].append(part)
        targets = []
        for target, *rest in sides:
            for part in rest:
                target.merge_from(part)
                remap[part.slot] = target.slot
            targets.append(target)
        return targets

    def settle(
        self,
        split: Split,
        targets: list,
        remap: dict[int, int],
        account: TreeAccount,
        nid: np.ndarray | None = None,
        buffered: tuple | None = None,
        threshold: float = np.nan,
    ) -> list:
        """The one resolve tail: deal the buffer, then commit or collapse.

        ``buffered`` (when given) is dealt into ``targets`` by
        :meth:`deal`.  A side left empty collapses the node (in practice
        only when the deciding histogram was approximate at the edges);
        otherwise ``split`` becomes the node's split and the targets its
        children's parts.  Returns ``(child, part)`` pairs.
        """
        if buffered is not None:
            self.deal(targets, nid, buffered, threshold)
        left, right = targets
        if left.class_counts.sum() == 0 or right.class_counts.sum() == 0:
            return self.collapse(remap)
        node = self.node
        node.split = split
        node.left = account.new_node(node.depth + 1, left.class_counts.copy())
        node.right = account.new_node(node.depth + 1, right.class_counts.copy())
        return [(node.left, left), (node.right, right)]

    def deal(
        self, targets: list, nid: np.ndarray, buffered: tuple, threshold: float
    ) -> None:
        """Deal :meth:`buffered`'s records into the ``[left, right]`` targets.

        A record goes left when its split-axis value is at most
        ``threshold``; its new slot is written to ``nid``.
        """
        Xb, yb, rids, vals = buffered
        if len(yb):
            goes_left = vals <= threshold
            for part, m in zip(targets, (goes_left, ~goes_left)):
                _update_part(part, Xb, yb, m, None)
                nid[rids[m]] = part.slot

    def parts_nbytes(self) -> int:
        """Bytes held by the preliminary parts (the ``parts/`` ledger entry)."""
        return sum(part.nbytes() for part in self.all_parts())

    def buffer_nbytes(self) -> int:
        """Bytes of buffered records after the scan (the ``buf/`` entry)."""
        return sum(q.buffer.nbytes() for q in self.with_sides())

    def region_tops(self) -> list[float]:
        """Upper value bound of each preliminary region's part, in order."""
        return [lo for lo, __ in self.alive_bounds] + [np.inf]


def _update_part(
    part: PartState,
    X: np.ndarray,
    y: np.ndarray,
    m: np.ndarray,
    weights: np.ndarray | None,
    arena: LevelArena | None = None,
) -> None:
    """Add the records selected by ``m`` to ``part``'s accumulator
    (weighted when given), in ``arena`` when given (a worker's delta)."""
    part.accumulator.update(
        X[m], y[m], None if weights is None else weights[m], arena
    )


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


def boundary_split(analysis: AttributeAnalysis) -> NumericSplit:
    """The exact split at ``analysis``'s best grid boundary."""
    return NumericSplit(
        analysis.attr,
        float(analysis.edges[analysis.best_boundary]),
        n_candidates=max(1, len(analysis.edges)),
    )


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


@dataclass
class PendingScan:
    """One tree's pending splits as a :meth:`ScanEngine.scan` target.

    ``nid`` is the tree's record→slot column and ``weights`` its
    per-record bootstrap multiplicities (``None`` for a solo build).
    They are the routing context: a worker's delta shares them and
    leaves them behind when it is pickled home.  Making the target lays
    its pendings' parts out in one :class:`~repro.core.arena.LevelArena`;
    a worker's delta (:meth:`scan_delta`) is that arena zeroed plus
    ``buffers`` by pending ``parent_slot``, and pickles as only those.
    """

    nid: np.ndarray
    weights: np.ndarray | None
    pendings: dict[int, PendingSplit]
    arena: LevelArena | None = None
    buffers: dict[int, RecordBuffer] | None = None

    def __post_init__(self) -> None:
        if self.arena is None:
            self.arena = LevelArena(
                [
                    part.accumulator
                    for p in self.pendings.values()
                    for part in p.all_parts()
                ],
                len(self.nid),
            )

    def __getstate__(self) -> dict:
        return {"arena": self.arena.arrays(), "buffers": self.buffers}

    def route(self, chunk: ScanChunk) -> None:
        """Route one chunk's records through the tree's pending splits.

        The chunk is sorted by slot once (stably, so each slot's records
        keep their record order); every pending then routes one
        contiguous run of that order.  The bagged forest's never-drawn
        records carry a negative ``nid`` and so match no pending.
        """
        if not self.pendings:
            return
        slots = self.nid[chunk.start : chunk.stop]
        order = np.argsort(slots, kind="stable")
        keys = np.fromiter(self.pendings, dtype=slots.dtype, count=len(self.pendings))
        sorted_slots = slots[order]
        los = np.searchsorted(sorted_slots, keys, side="left").tolist()
        his = np.searchsorted(sorted_slots, keys, side="right").tolist()
        weights = self.weights
        if weights is not None:
            weights = weights[chunk.start : chunk.stop]
        delta = None if self.buffers is None else self
        for p, lo, hi in zip(self.pendings.values(), los, his):
            if lo < hi:
                idx = order[lo:hi]
                p.route(
                    chunk.X[idx],
                    chunk.y[idx],
                    chunk.rids[idx],
                    self.nid,
                    None if weights is None else weights[idx],
                    delta,
                )

    def buffer(self, p: PendingSplit) -> RecordBuffer:
        """``p``'s buffer in this delta: fresh, with ``p``'s budget."""
        buf = self.buffers.get(p.parent_slot)
        if buf is None:
            buf = self.buffers[p.parent_slot] = RecordBuffer(
                budget_bytes=p.buffer.budget_bytes
            )
        return buf

    def scan_delta(self) -> "PendingScan":
        """The zeroed arena and no buffers, over the same routing context."""
        return PendingScan(self.nid, self.weights, self.pendings, self.arena.zeroed(), {})

    def merge_scan_delta(self, delta: "PendingScan") -> None:
        """Fold one worker's delta in; the engine merges in chunk order.

        One whole-array operation per arena array, then each buffered
        pending's records, appended in chunk order.
        """
        self.arena.merge(delta.arena)
        if delta.buffers:
            owners = {
                q.parent_slot: q for p in self.pendings.values() for q in p.with_sides()
            }
            for slot, buf in delta.buffers.items():
                owners[slot].buffer.extend_from(buf)

    def delta_nbytes(self) -> int:
        """Bytes one fresh delta occupies (its pendings' parts; buffers
        start empty)."""
        return sum(p.parts_nbytes() for p in self.pendings.values())


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
    recoverable.  After the level scan the records still at a pending's
    ``parent_slot`` are exactly its alive ones, since its region records
    moved to their parts' slots.  So each overflowed pending gets a
    fresh, unbounded buffer and is routed again as a copy with no parts
    that shares it: :meth:`PendingSplit.route` only buffers.  One shared
    pass (chunk-parallel like any other scan) refills every overflowed
    buffer in the exact append order of the un-budgeted path, so
    resolution — and the final tree — is unchanged; only the extra scan
    is charged.

    Each group is one tree's ``(nid column, per-record weights or None,
    overflowed pendings)``.
    """
    stats.buffer_overflow_rescans += 1
    targets = []
    for nid, weights, overflowed in groups:
        for p in overflowed:
            p.buffer = RecordBuffer()  # unbounded: contents fit by paper's premise
        copies = {p.parent_slot: replace(p, parts=[]) for p in overflowed}
        targets.append(PendingScan(nid, weights, copies))
    engine.scan(table, targets)
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
    quantiling reservoirs and root accumulator (the one part of its root
    pending).  The remaining fields are the tree's loop state; ``nid`` is
    its column of the shared map, and never-drawn records hold ``-1``
    there.
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

    One scan precedes the loop: a quantiling pass that fixes the root
    interval grid (charged to CLOUDS identically, see DESIGN.md §3).  It
    plants each root as a one-part pending, so level 0's scan fills the
    root accumulator (Figures 4 and 10, line 03) and its step decides the
    root.  Each later level makes one scan that routes every record from
    its pending parent into preliminary parts and buffers alive-interval
    records, followed by resolution of the exact splits and the
    children's decisions.

    The driver, :meth:`_grow`, grows a list of :class:`Member` trees with
    the same scans: one member for a solo build, one per bootstrap draw
    for the bagged forest.  Builders supply the strategy:

    * :meth:`_root_part` — the root accumulator level 0's scan fills;
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

    Every pass that routes records — the level scan, the overflow refill
    and CLOUDS-SSE's exact pass — is one :meth:`ScanEngine.scan` over
    one :class:`PendingScan` target per tree, so each record reaches its
    pending through the same sort-by-slot routing and the pending's own
    ``route``.

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
                nid = self._plant(table, stats, schema, members)
                level = -1

            # --- One scan per level; level 0's fills the roots. -----------
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
        self, table, stats: BuildStats, schema: Schema, members: list[Member]
    ) -> np.ndarray:
        """The quantiling scan; then every member's root and root pending.

        A root pending has one part, the member's root accumulator, so the
        loop's first level scan fills it like any other node's part.
        Returns the shared ``nid`` map: one column per member, or a plain
        vector for a solo build.
        """
        n = table.n_records
        nid = np.zeros(n if len(members) == 1 else (n, len(members)), dtype=np.int64)
        with stats.phase("scan"):
            quantiled = self._quantile_scan(
                table, schema, [(m.weights, m.rng) for m in members]
            )
        # reshape(n, -1).T yields writable per-member column views of nid.
        for m, column, (totals, root_edges) in zip(
            members, nid.reshape(n, -1).T, quantiled
        ):
            m.root = m.account.new_node(0, totals)
            m.nid = column
            if m.weights is not None:
                column[m.weights == 0] = -1
            part = m.builder._root_part(schema, root_edges, m.rng)
            stats.memory.allocate(f"{m.prefix}parts/{m.root.node_id}", part.nbytes())
            m.pendings[0] = PendingSplit(node=m.root, parent_slot=0, parts=[part])
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

        Each member is one :class:`PendingScan` target, which lays the
        member's parts out in one level arena.  Workers route private
        deltas that merge in chunk order and write new slots back into
        ``nid``.  The node-id swap is charged per member, and
        buffers that overflowed their budget are refilled by one extra
        scan.
        """
        n = len(nid)
        with stats.phase("scan"):
            engine.scan(
                table,
                [PendingScan(m.nid, m.weights, m.pendings) for m in live],
                memory=stats.memory,
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
        and its answers are dropped once decided; the level's arena goes
        with its last part, before the next level's is laid out.
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

        Resolves every scanned pending (a one-part pending hands its part
        to its own node: level 0's roots), decides all children with one
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
                kids = (
                    [(p.node, p.parts[0])]
                    if p.n_parts == 1
                    else m.builder._resolve(p, m.nid, remap, m.account, schema, stats)
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
    "PendingScan",
    "PendingSplit",
    "RecordBuffer",
    "ResolvedThreshold",
    "zone_boundaries",
    "classify_zones",
    "resolve_exact_threshold",
    "TreeAccount",
    "Node",
    "DecisionTree",
]
