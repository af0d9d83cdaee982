"""Differential runner: every builder against the exact oracle.

For one dataset, :func:`run_differential` grows trees with the CMP family
and the in-repo baselines and checks each tree against
:mod:`repro.verify.oracle` ground truth (that parallel scans build the
same trees is :mod:`repro.verify.conformance`'s check):

* **Exact invariants** (no tolerance): node class counts match the
  records that actually route to each node; the compiled prediction
  engine agrees with the object walker; exhaustive baselines (SLIQ,
  SPRINT) achieve the oracle optimum at every node.
* **Bounded invariants**: the CMP family's per-node split quality is
  allowed to trail the oracle by at most an explicit estimator bound
  derived from the paper's footnote 1 (see :func:`estimator_bound`), and
  leaves the stopping rules don't explain must be within the same bound
  of the ``min_gain`` cutoff.
* **Reported deltas**: training accuracy and prediction agreement
  against the oracle tree (informational — tree-level differences are
  expected whenever bounded per-node gaps compound).

Why the bound is what it is
---------------------------

Footnote 1 of the paper: within interval *i* holding ``N_i`` of the
node's ``N`` records, the split gini can fall below the interval's
boundary gini by less than ``2 N_i / N``.  Writing ``oracle(a)`` for the
exact best gini on attribute ``a``, ``w`` for the attribute the builder
chose and ``b`` for the oracle's best attribute:

* the resolved threshold is exact over the best boundary plus buffered
  alive intervals, so ``achieved <= best_boundary(w) <= oracle(w) +
  2 N_w*/N`` (``N_w*``: population of the interval containing ``w``'s
  true optimum);
* the builder preferred ``w`` because its score was lowest, and scores
  are clamped to ``boundary_min - 2 N_i/N``, so ``oracle(w) <=
  oracle(b) + 2 N_b*/N + 2 max_i N_i(w)/N``;
* CMP-B/CMP additionally prefer the root X axis within
  ``x_tie_margin * node_gini``;
* CMP-B/CMP *second-level* nodes — committed from a two-level pending's
  side sub-matrices — choose among **continuous** attributes only
  (categorical attributes have no per-side histograms; see the
  :mod:`repro.core.cmp_b` docstring), so those nodes are held to the
  best continuous oracle split rather than the overall optimum.  The
  builder reports which nodes these are via
  ``BuildStats.second_level_node_ids``.

Interval populations are measured on a fresh equal-depth grid with the
same adaptive interval count the builder would use at that node size;
*atomic* intervals (a single distinct value) contribute nothing, because
their optimum sits on a boundary the builder evaluates exactly.  A
``safety`` factor (default 2) absorbs the drift between this grid and
the builder's interpolated child grids; the grid is also evaluated at
half resolution and the worse slack taken, covering coarser interpolated
grids.  On tie-heavy data almost every interval is atomic, so the bound
collapses toward zero and the checks approach exactness — precisely
where tie-handling bugs live.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.clouds import CloudsBuilder
from repro.baselines.sliq import SliqBuilder
from repro.baselines.sprint import SprintBuilder
from repro.config import BuilderConfig
from repro.core.builder import adaptive_intervals
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.gini import gini_partition
from repro.core.splits import CategoricalSplit, LinearSplit, NumericSplit
from repro.core.tree import DecisionTree
from repro.data.dataset import Dataset
from repro.data.discretize import bin_index, equal_depth_edges
from repro.verify.oracle import OracleBuilder, OracleSplit, oracle_best_split
from repro.verify.walker import walk_predict

#: Builder name -> class, in canonical run order.
BUILDER_FACTORIES = {
    "CMP-S": CMPSBuilder,
    "CMP-B": CMPBBuilder,
    "CMP": CMPBuilder,
    "CLOUDS": CloudsBuilder,
    "SLIQ": SliqBuilder,
    "SPRINT": SprintBuilder,
}

#: Builders whose split search is exhaustive per node — held to 1e-9.
EXACT_BUILDERS = frozenset({"SLIQ", "SPRINT"})

#: Builders whose root X-axis preference tolerates a gini tie margin.
X_PREFERENCE_BUILDERS = frozenset({"CMP-B", "CMP"})

#: Numerical cushion on every comparison of float ginis.
EPS = 1e-9


@dataclass(frozen=True)
class Finding:
    """One verification failure (or informational note)."""

    builder: str
    kind: str
    message: str
    node_id: int = -1
    value: float = np.nan
    bound: float = np.nan
    severity: str = "error"

    def __str__(self) -> str:
        loc = f" node {self.node_id}" if self.node_id >= 0 else ""
        extra = ""
        if np.isfinite(self.value) or np.isfinite(self.bound):
            extra = f" (value={self.value:.6g}, bound={self.bound:.6g})"
        return f"[{self.severity}] {self.builder}{loc} {self.kind}: {self.message}{extra}"


def tree_signature(tree: DecisionTree):
    """Hashable, exact structural fingerprint of a tree.

    Two trees compare equal iff every node's split parameters and class
    counts are bit-identical — the invariant the parallel scan engine
    guarantees across worker counts (:mod:`repro.verify.conformance`).
    """

    def key(node):
        counts = tuple(float(c) for c in node.class_counts)
        if node.is_leaf:
            return ("leaf", counts)
        s = node.split
        if isinstance(s, NumericSplit):
            sk = ("num", s.attr, s.threshold)
        elif isinstance(s, CategoricalSplit):
            sk = ("cat", s.attr, s.left_mask)
        elif isinstance(s, LinearSplit):
            sk = ("lin", s.attr_x, s.attr_y, s.a, s.b, s.c)
        else:  # pragma: no cover - new split kinds must extend this
            raise TypeError(f"unknown split type {type(s).__name__}")
        return (sk, counts, key(node.left), key(node.right))

    return key(tree.root)


def node_members(tree: DecisionTree, X: np.ndarray) -> dict[int, np.ndarray]:
    """Record indices routed to every node, via the tree's own routing rule."""
    members: dict[int, np.ndarray] = {}
    stack = [(tree.root, np.arange(len(X)))]
    while stack:
        node, idx = stack.pop()
        members[node.node_id] = idx
        if node.is_leaf:
            continue
        split = node.split
        if isinstance(split, CategoricalSplit):
            heavier_left = node.left.n_records >= node.right.n_records
            goes_left = split.goes_left(X[idx], unseen_left=heavier_left)
        else:
            goes_left = split.goes_left(X[idx])
        stack.append((node.right, idx[~goes_left]))
        stack.append((node.left, idx[goes_left]))
    return members


def _max_nonatomic_frac(values: np.ndarray, q: int) -> float:
    """Largest fraction of records in one *non-atomic* equal-depth interval.

    Atomic intervals (single distinct value) are excluded: their best cut
    is the interval edge, which boundary ginis evaluate exactly, so they
    add no estimator slack.
    """
    n = len(values)
    if n == 0:
        return 0.0
    edges = equal_depth_edges(values, q)
    if len(edges) == 0:
        bins = np.zeros(n, dtype=np.intp)
        n_bins = 1
    else:
        bins = bin_index(values, edges)
        n_bins = len(edges) + 1
    counts = np.bincount(bins, minlength=n_bins).astype(np.float64)
    vmin = np.full(n_bins, np.inf)
    vmax = np.full(n_bins, -np.inf)
    np.fmin.at(vmin, bins, values)
    np.fmax.at(vmax, bins, values)
    nonatomic = (counts > 0) & (vmax > vmin)
    if not nonatomic.any():
        return 0.0
    return float(counts[nonatomic].max() / n)


def _attr_slack(values: np.ndarray, n: int, configured_intervals: int) -> float:
    """Footnote-1 slack ``2 max_i N_i / N`` for one attribute at node size n.

    Evaluated at the builder's adaptive grid resolution and at half that
    resolution (interpolated child grids can be effectively coarser than
    a fresh equal-depth grid); the worse slack wins.
    """
    q = adaptive_intervals(configured_intervals, n)
    frac = max(
        _max_nonatomic_frac(values, q),
        _max_nonatomic_frac(values, max(4, q // 2)),
    )
    return 2.0 * frac


def estimator_bound(
    X: np.ndarray,
    node_split,
    oracle: OracleSplit,
    config: BuilderConfig,
    node_gini: float,
    builder: str,
    safety: float,
    continuous: list[int],
    second_level: bool = False,
) -> float:
    """Explicit per-node bound on ``achieved - oracle`` (module docstring).

    ``X`` holds the node's member records.  The winner-side term covers
    resolution within the chosen attribute's grid (doubled: threshold
    interval plus score clamp); the oracle-side term covers the score
    comparison that made the builder prefer its attribute; categorical
    sides are exact and contribute nothing.  For ``second_level`` nodes
    the caller compares against the continuous-only oracle, so the
    oracle-side slack is always the numeric attribute's.
    """
    n = len(X)
    if builder in EXACT_BUILDERS:
        return EPS

    def slack(attr: int) -> float:
        return _attr_slack(X[:, attr].astype(np.float64), n, config.n_intervals)

    if isinstance(node_split, NumericSplit):
        winner_term = 2.0 * slack(node_split.attr)
    elif isinstance(node_split, LinearSplit):
        # Linear acceptance requires beating the univariate candidate,
        # so the worst continuous attribute bounds the winner side.
        winner_term = 2.0 * max((slack(a) for a in continuous), default=0.0)
    else:
        winner_term = 0.0

    if oracle.numeric_attr >= 0 and (
        second_level or oracle.numeric_gini <= oracle.categorical_gini
    ):
        oracle_term = slack(oracle.numeric_attr)
    else:
        oracle_term = 0.0

    tie_term = 0.0
    if builder in X_PREFERENCE_BUILDERS:
        tie_term = config.x_tie_margin * max(node_gini, 0.0)

    return safety * (winner_term + oracle_term) + tie_term + EPS


@dataclass
class GapStats:
    """Aggregate split-quality accounting for one tree."""

    n_internal: int = 0
    n_exact: int = 0
    max_gap: float = 0.0
    max_bound: float = 0.0

    def observe(self, gap: float, bound: float) -> None:
        self.n_internal += 1
        if gap <= EPS:
            self.n_exact += 1
        self.max_gap = max(self.max_gap, gap)
        self.max_bound = max(self.max_bound, bound)


def check_tree_against_oracle(
    tree: DecisionTree,
    dataset: Dataset,
    config: BuilderConfig,
    builder: str,
    safety: float = 2.0,
    second_level_nodes: frozenset[int] = frozenset(),
) -> tuple[list[Finding], GapStats]:
    """Per-node verification of one built tree (see module docstring).

    ``second_level_nodes`` names the nodes whose split was committed at
    the second level of a CMP-B/CMP two-level pending; those compete
    among continuous attributes only and are compared against the best
    continuous oracle split (module docstring).
    """
    findings: list[Finding] = []
    stats = GapStats()
    X, y = dataset.X, dataset.y
    schema = dataset.schema
    c = schema.n_classes
    continuous = schema.continuous_indices()
    members = node_members(tree, X)
    nodes = {n.node_id: n for n in tree.iter_nodes()}

    for node_id, node in nodes.items():
        idx = members[node_id]
        counts = np.bincount(y[idx], minlength=c).astype(np.float64)
        if not np.array_equal(counts, node.class_counts):
            findings.append(
                Finding(
                    builder,
                    "count_mismatch",
                    f"stored class counts {node.class_counts.tolist()} != "
                    f"routed counts {counts.tolist()}",
                    node_id=node_id,
                )
            )
            continue
        n = len(idx)
        node_gini = node.gini

        if node.is_leaf:
            if (
                n < config.min_records
                or node_gini <= config.min_gini
                or node.depth >= config.max_depth
            ):
                continue
            oracle = oracle_best_split(X[idx], y[idx], schema)
            oracle_ref = min(oracle.numeric_gini, oracle.categorical_gini)
            if not np.isfinite(oracle_ref):
                continue
            gain = node_gini - oracle_ref
            if builder in EXACT_BUILDERS:
                leaf_bound = EPS
            else:
                if oracle.numeric_gini <= oracle.categorical_gini:
                    leaf_bound = (
                        safety
                        * _attr_slack(
                            X[idx, oracle.numeric_attr].astype(np.float64),
                            n,
                            config.n_intervals,
                        )
                        + EPS
                    )
                else:
                    leaf_bound = EPS
            if gain > config.min_gain + leaf_bound:
                findings.append(
                    Finding(
                        builder,
                        "unjustified_leaf",
                        f"leaf at depth {node.depth} with n={n}, "
                        f"gini={node_gini:.6g}, but the oracle finds a split "
                        f"of gini {oracle_ref:.6g}",
                        node_id=node_id,
                        value=gain,
                        bound=config.min_gain + leaf_bound,
                    )
                )
            continue

        # Internal node: the split must be within the estimator bound of
        # the exhaustive optimum on the records it actually partitions.
        left_idx = members[node.left.node_id]
        right_idx = members[node.right.node_id]
        left_counts = np.bincount(y[left_idx], minlength=c)
        right_counts = np.bincount(y[right_idx], minlength=c)
        if len(left_idx) == 0 or len(right_idx) == 0:
            findings.append(
                Finding(
                    builder,
                    "degenerate_split",
                    f"split {node.split.describe(schema)} sends every record "
                    "to one side",
                    node_id=node_id,
                )
            )
            continue
        achieved = float(gini_partition(left_counts, right_counts))
        oracle = oracle_best_split(X[idx], y[idx], schema)
        second_level = node_id in second_level_nodes
        if second_level:
            oracle_ref = oracle.numeric_gini
        else:
            oracle_ref = min(oracle.numeric_gini, oracle.categorical_gini)
        if not np.isfinite(oracle_ref):
            findings.append(
                Finding(
                    builder,
                    "split_without_oracle",
                    "builder split a node where the oracle finds no valid split",
                    node_id=node_id,
                    value=achieved,
                )
            )
            continue
        gap = achieved - oracle_ref
        bound = estimator_bound(
            X[idx],
            node.split,
            oracle,
            config,
            node_gini,
            builder,
            safety,
            continuous,
            second_level=second_level,
        )
        stats.observe(gap, bound)
        if gap > bound:
            findings.append(
                Finding(
                    builder,
                    "estimator_bound_exceeded",
                    f"split {node.split.describe(schema)} achieves gini "
                    f"{achieved:.6g} vs oracle {oracle_ref:.6g} on n={n}",
                    node_id=node_id,
                    value=gap,
                    bound=bound,
                )
            )
        if achieved > node_gini + EPS:
            findings.append(
                Finding(
                    builder,
                    "worsening_split",
                    f"split gini {achieved:.6g} exceeds node gini "
                    f"{node_gini:.6g} (concavity violation)",
                    node_id=node_id,
                    value=achieved,
                    bound=node_gini,
                )
            )
    return findings, stats


@dataclass
class BuilderOutcome:
    """Summary of one builder's verified build."""

    builder: str
    n_nodes: int
    n_leaves: int
    depth: int
    accuracy: float
    oracle_agreement: float
    stats: GapStats

    def as_row(self) -> dict:
        return {
            "builder": self.builder,
            "nodes": self.n_nodes,
            "leaves": self.n_leaves,
            "depth": self.depth,
            "accuracy": round(self.accuracy, 4),
            "oracle_agree": round(self.oracle_agreement, 4),
            "internal": self.stats.n_internal,
            "exact": self.stats.n_exact,
            "max_gap": round(self.stats.max_gap, 6),
            "max_bound": round(self.stats.max_bound, 6),
        }


@dataclass
class DifferentialReport:
    """Everything :func:`run_differential` learned about one dataset."""

    oracle_accuracy: float
    outcomes: list[BuilderOutcome] = field(default_factory=list)
    findings: list[Finding] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was raised."""
        return not any(f.severity == "error" for f in self.findings)

    def rows(self) -> list[dict]:
        """Table rows for :func:`repro.eval.harness.format_table`."""
        return [o.as_row() for o in self.outcomes]


def run_differential(
    dataset: Dataset,
    config: BuilderConfig,
    builders: tuple[str, ...] = ("CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ"),
    safety: float = 2.0,
    tracer=None,
) -> DifferentialReport:
    """Grow every requested builder on ``dataset`` and verify each tree.

    The config is normalized for verifiability: pruning off (pruned
    leaves would trip the leaf-justification check by design) and
    reservoirs large enough to hold the whole dataset (the estimator
    bound assumes quantiles of the data, not of a subsample).
    """
    n = dataset.n_records
    cfg = config.with_(
        prune="none",
        reservoir_capacity=max(config.reservoir_capacity, n),
        scan_workers=1,
    )
    oracle_result = OracleBuilder(cfg, tracer=tracer).build(dataset)
    oracle_pred = oracle_result.tree.predict(dataset.X)
    report = DifferentialReport(
        oracle_accuracy=float(np.mean(oracle_pred == dataset.y))
    )

    n_continuous = len(dataset.schema.continuous_indices())
    for name in builders:
        if name not in BUILDER_FACTORIES:
            raise ValueError(f"unknown builder {name!r}")
        if name in X_PREFERENCE_BUILDERS and n_continuous < 2:
            continue
        factory = BUILDER_FACTORIES[name]
        try:
            result = factory(cfg, tracer=tracer).build(dataset)
        except Exception as exc:  # noqa: BLE001 - crashes become findings
            report.findings.append(
                Finding(name, "crash", f"{type(exc).__name__}: {exc}")
            )
            continue
        tree = result.tree
        second_ids = frozenset(
            getattr(result.stats, "second_level_node_ids", ())
        )
        findings, stats = check_tree_against_oracle(
            tree, dataset, cfg, name, safety=safety, second_level_nodes=second_ids
        )
        report.findings.extend(findings)

        compiled_pred = tree.predict(dataset.X)
        walked_pred = walk_predict(tree, dataset.X)
        if not np.array_equal(compiled_pred, walked_pred):
            report.findings.append(
                Finding(
                    name,
                    "compiled_walker_mismatch",
                    f"{int(np.sum(compiled_pred != walked_pred))} of {n} "
                    "predictions differ between compiled engine and walker",
                )
            )

        report.outcomes.append(
            BuilderOutcome(
                builder=name,
                n_nodes=tree.n_nodes,
                n_leaves=tree.n_leaves,
                depth=tree.depth,
                accuracy=float(np.mean(compiled_pred == dataset.y)),
                oracle_agreement=float(np.mean(compiled_pred == oracle_pred)),
                stats=stats,
            )
        )
    return report


__all__ = [
    "BUILDER_FACTORIES",
    "BuilderOutcome",
    "DifferentialReport",
    "EXACT_BUILDERS",
    "Finding",
    "GapStats",
    "check_tree_against_oracle",
    "estimator_bound",
    "node_members",
    "run_differential",
    "tree_signature",
]
