"""Configuration shared by every tree builder in the repository."""

from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class BuilderConfig:
    """Knobs for tree construction.

    Defaults follow the paper: 100+ intervals for large datasets, at most
    two alive intervals, PUBLIC-style pruning available but off by default
    (experiments that measure construction cost follow the paper in
    treating pruning as negligible).
    """

    #: Equal-depth intervals per continuous attribute ("100 to 120" in §3).
    n_intervals: int = 100
    #: Cap on alive intervals per split (paper: "at most 2 is enough").
    max_alive: int = 2
    #: Hard depth limit (root = depth 0).
    max_depth: int = 24
    #: Nodes with fewer records become leaves.
    min_records: int = 24
    #: Nodes with gini below this are considered pure.
    min_gini: float = 1e-3
    #: Minimum gini improvement a split must offer.
    min_gain: float = 1e-4
    #: Reservoir size used for root-grid quantiling during the first scan.
    reservoir_capacity: int = 10_000
    #: Simulated page capacity in records.
    page_records: int = 200
    #: Seed for any randomized tie-breaking / sampling inside builders.
    seed: int = 0
    #: Pruning mode: "none", "public" (integrated PUBLIC(1)) or "mdl"
    #: (post-construction MDL pruning).
    prune: str = "none"
    #: Splitting criterion: "gini" (the paper's choice) or "entropy".
    #: CMP's interval estimation (Eq. 4-5) is gini-specific, so the CMP
    #: family and CLOUDS accept only "gini"; the exact algorithms (SPRINT,
    #: SLIQ, RainForest) support both.
    criterion: str = "gini"

    # --- CMP-specific knobs -------------------------------------------------
    #: Try linear-combination splits only when the best univariate gini at
    #: the node is above this threshold (§2.3 "Heuristics").
    linear_trigger_gini: float = 0.05
    #: Accept a linear split only when its gini is below this fraction of
    #: the best univariate gini ("say 20% smaller" => 0.8).
    linear_accept_ratio: float = 0.8

    #: Linear splits are only attempted at nodes with at least this many
    #: records (line discovery is a structural, top-of-tree concern).
    linear_min_records: int = 500

    #: CMP-B prefers splitting on the predicted X axis when its gini is
    #: within this fraction of the node's impurity of the true best score
    #: (near-tie breaking toward the axis that enables two-level growth;
    #: 0 disables).  Bounded split-quality loss, large scan savings when
    #: attributes are correlated (e.g. salary vs commission).
    x_tie_margin: float = 0.02

    #: Cap on cells per bivariate histogram matrix (CMP-B/CMP).  Grids are
    #: shrunk so qx*qy stays at or below this; exactness is unaffected
    #: because alive-interval buffering resolves thresholds from records.
    matrix_max_cells: int = 2048

    # --- RainForest-specific knobs ------------------------------------------
    #: AVC-group buffer capacity in entries (paper: 2.5 million).
    avc_buffer_entries: int = 2_500_000

    # --- CLOUDS-specific knobs ----------------------------------------------
    #: "ss" = sampled splits only (boundary splits, 1 scan/level);
    #: "sse" = sampling + estimation (alive intervals, extra exact pass).
    clouds_mode: str = "sse"

    # --- Resilience knobs ---------------------------------------------------
    #: Re-read attempts allowed per scan chunk beyond the first (0 turns
    #: recovery off: the first read fault aborts the build).
    scan_retries: int = 3
    #: Simulated backoff before the first retry of a chunk, in ms; doubles
    #: per further attempt.  Charged to ``IOStats.backoff_ms``.
    retry_backoff_ms: float = 1.0
    #: When set, builders write a checkpoint here after every completed
    #: tree level (and remove it once the build finishes).
    checkpoint_path: str | None = None
    #: Resume from ``checkpoint_path`` if a valid checkpoint exists there
    #: (otherwise build from scratch).  The resumed tree is bit-identical
    #: to an uninterrupted build.
    resume: bool = False
    #: Memory budget in bytes for each alive-interval record buffer of
    #: CMP-S and the bagged CMP-S forest (0 = unbounded).  On overflow the
    #: buffer is dropped and the level falls back to a CLOUDS-style extra
    #: scan that re-collects the alive records — correctness preserved,
    #: one extra scan charged.  CMP-B and CMP have no such fallback for
    #: their two-level and linear buffers and reject a nonzero budget.
    buffer_budget_bytes: int = 0

    # --- Parallelism knobs --------------------------------------------------
    #: Worker threads routing each scan's chunks (1 = serial).  Each worker
    #: accumulates private histogram/matrix/buffer deltas over a contiguous
    #: slice of the chunk list; deltas are merged deterministically in chunk
    #: order, so the built tree is bit-identical for any worker count.
    scan_workers: int = 1
    #: How scan workers execute: ``"thread"`` (shared-memory pool) or
    #: ``"process"`` (fork-per-scan workers that sidestep the GIL; falls
    #: back to threads on platforms without ``fork``).  Either backend
    #: produces bit-identical trees — the choice is purely about speed.
    scan_backend: str = "thread"

    def __post_init__(self) -> None:
        if self.n_intervals < 2:
            raise ValueError("n_intervals must be at least 2")
        if self.max_alive < 0:
            raise ValueError("max_alive must be non-negative")
        if self.max_depth < 1:
            raise ValueError("max_depth must be at least 1")
        if self.prune not in ("none", "public", "mdl"):
            raise ValueError("prune must be 'none', 'public' or 'mdl'")
        if self.criterion not in ("gini", "entropy"):
            raise ValueError("criterion must be 'gini' or 'entropy'")
        if self.clouds_mode not in ("ss", "sse"):
            raise ValueError("clouds_mode must be 'ss' or 'sse'")
        if not 0.0 < self.linear_accept_ratio <= 1.0:
            raise ValueError("linear_accept_ratio must be in (0, 1]")
        if self.scan_retries < 0:
            raise ValueError("scan_retries must be non-negative")
        if self.retry_backoff_ms < 0:
            raise ValueError("retry_backoff_ms must be non-negative")
        if self.buffer_budget_bytes < 0:
            raise ValueError("buffer_budget_bytes must be non-negative")
        if self.scan_workers < 1:
            raise ValueError("scan_workers must be at least 1")
        if self.scan_backend not in ("thread", "process"):
            raise ValueError("scan_backend must be 'thread' or 'process'")
        if self.resume and not self.checkpoint_path:
            raise ValueError("resume requires checkpoint_path")

    def with_(self, **changes: object) -> "BuilderConfig":
        """Return a copy with the given fields replaced."""
        return replace(self, **changes)  # type: ignore[arg-type]


DEFAULT_CONFIG = BuilderConfig()
