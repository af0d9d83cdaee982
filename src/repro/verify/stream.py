"""Differential verification of sketch-chosen streaming splits.

The streaming trainer picks every split from mergeable sketches instead
of exact histograms, so the PR 5 question — *how far from the exact
oracle is each committed split allowed to be?* — gets a sketch-aware
answer here.  For a node that split after absorbing records ``S`` (the
``members`` the trainer records), with per-attribute summed per-class
rank-error bounds ``E_a`` (queried from the sketches at decision time,
in absolute records):

* the achieved gini of the chosen split on ``S`` differs from the
  trainer's sketch score by at most ``2 E_â / N`` (winner attribute
  ``â``; moving one record across a partition moves ``gini^D`` by at
  most ``2/N`` — the footnote-1 Lipschitz fact,
  :func:`repro.core.estimation.sketch_count_slack`);
* the winner's score is minimal over **every** candidate of every
  attribute, in particular over the candidates bracketing the exact
  oracle's optimum ``t*`` on its attribute ``b``;
* ``t*`` sits inside one interval of ``b``'s recorded candidate grid;
  walking from ``t*`` to the interval edge crosses at most the
  interval's population ``N_i``, so the exact gini at that bracketing
  candidate exceeds the oracle by at most ``2 N_i / N`` (atomic
  intervals — single distinct value — contribute nothing, exactly as in
  the batch harness); scoring that candidate through the sketches costs
  another ``2 E_b / N``.

Total per-node bound::

    achieved - oracle <= safety * (2 E_â / N + 2 E_b / N + 2 frac_b) + EPS

with ``frac_b`` the **measured** largest non-atomic interval fraction of
the oracle attribute's recorded grid on the node's members (falling back
to the analytic ``1/q + 2 c eps`` of
:func:`repro.core.estimation.sketch_split_slack` when the grid is not
available).  A categorical oracle side is exact whenever the
heavy-hitter sketch's capacity covers the attribute's cardinality (the
default), so it contributes only its (usually zero) ``error_bound``.

:func:`check_streaming_tree` replays this bound for every recorded
split; :func:`run_stream_differential` builds-and-checks one stream;
:func:`run_stream_battery` sweeps seeds × generator functions × stream
orders — the 25-seed acceptance battery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import DEFAULT_CONFIG, BuilderConfig
from repro.core.gini import gini, gini_partition
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.data.dataset import Dataset
from repro.data.discretize import bin_index
from repro.data.synthetic import generate_agrawal
from repro.stream.trainer import SplitMeta, StreamingResult, StreamingTrainer
from repro.verify.differential import EPS, Finding, GapStats
from repro.verify.oracle import oracle_best_split

#: Stream orders the battery replays (the sketch is deterministic but
#: order-sensitive, so conformance must hold for every order).
STREAM_ORDERS = ("natural", "sorted", "reversed", "shuffled")


def _grid_nonatomic_frac(values: np.ndarray, edges: np.ndarray) -> float:
    """Largest member fraction inside one non-atomic interval of ``edges``.

    The streaming analogue of the batch harness's
    ``_max_nonatomic_frac``: the grid is the trainer's *recorded*
    candidate grid rather than a fresh equal-depth quantiling, so the
    bound reflects the exact intervals the winner actually had to beat.
    """
    n = len(values)
    if n == 0:
        return 0.0
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
    populated = counts > 0
    nonatomic = populated & (vmin < vmax)
    if not nonatomic.any():
        return 0.0
    return float(counts[nonatomic].max() / n)


def _winner_count_slack(meta: SplitMeta, n: float) -> float:
    """Gini slack from scoring the *chosen* split with sketch counts."""
    split = meta.split
    if isinstance(split, NumericSplit):
        return 2.0 * meta.rank_errors.get(split.attr, 0.0) / n
    if isinstance(split, CategoricalSplit):
        err = meta.hh_errors.get(split.attr, 0.0)
        return 2.0 * err * len(split.left_mask) / n
    return 0.0


def _oracle_side_slack(
    meta: SplitMeta,
    oracle_attr: int | None,
    oracle_is_categorical: bool,
    values: np.ndarray | None,
    n: float,
    n_classes: int,
) -> float:
    """Gini slack covering the comparison against the oracle's attribute."""
    if oracle_attr is None:
        return 0.0
    if oracle_is_categorical:
        err = meta.hh_errors.get(oracle_attr, 0.0)
        card = 0 if err == 0.0 else n_classes  # exact HH: no slack at all
        return 2.0 * err * card / n
    rank_err = meta.rank_errors.get(oracle_attr, 0.0)
    edges = meta.candidate_edges.get(oracle_attr)
    if edges is not None and values is not None:
        frac = _grid_nonatomic_frac(values, edges)
    else:
        # Analytic fallback: an equal-depth-up-to-ε grid interval holds
        # at most 1/q + 2 c eps of the records.
        frac = 1.0 / meta.q + 2.0 * n_classes * meta.eps
    return 2.0 * rank_err / n + 2.0 * frac


def check_streaming_tree(
    result: StreamingResult,
    dataset: Dataset,
    safety: float = 2.0,
) -> tuple[list[Finding], GapStats]:
    """Replay every recorded sketch split against the exact oracle.

    ``result`` must come from a trainer built with
    ``record_members=True`` on the same stream order as ``dataset``'s
    row order (members index into the stream).
    """
    findings: list[Finding] = []
    gaps = GapStats()
    builder = "CMP-STREAM"
    if result.members is None:
        findings.append(
            Finding(
                builder,
                "missing_members",
                "trainer was not run with record_members=True; "
                "splits cannot be replayed",
            )
        )
        return findings, gaps
    schema = dataset.schema
    c = schema.n_classes
    categorical = set(schema.categorical_indices())
    for node_id, meta in sorted(result.split_meta.items()):
        idx = result.members.get(node_id)
        if idx is None:
            findings.append(
                Finding(
                    builder,
                    "missing_members",
                    "no member rows recorded for split node",
                    node_id=node_id,
                )
            )
            continue
        Xn = dataset.X[idx]
        yn = dataset.y[idx]
        n = float(len(idx))
        counts = np.bincount(yn, minlength=c).astype(np.float64)
        if len(idx) != meta.n_records or not np.array_equal(
            counts, np.asarray(meta.class_counts)
        ):
            findings.append(
                Finding(
                    builder,
                    "count_mismatch",
                    f"recorded decision counts {meta.class_counts} != member "
                    f"counts {tuple(counts)}",
                    node_id=node_id,
                )
            )
            continue
        node_gini = float(gini(counts))
        goes_left = meta.split.goes_left(Xn)
        left = np.bincount(yn[goes_left], minlength=c).astype(np.float64)
        achieved = float(gini_partition(left, counts - left))
        if goes_left.all() or not goes_left.any():
            findings.append(
                Finding(
                    builder,
                    "degenerate_split",
                    "chosen split sends every member to one side",
                    node_id=node_id,
                    value=achieved,
                )
            )
            continue
        oracle = oracle_best_split(Xn, yn, schema)
        if not oracle.found:
            continue
        oracle_attr: int | None = None
        oracle_cat = False
        values: np.ndarray | None = None
        if oracle.split is not None:
            oracle_attr = getattr(oracle.split, "attr", None)
            oracle_cat = oracle_attr in categorical
            if oracle_attr is not None and not oracle_cat:
                values = Xn[:, oracle_attr]
        bound = (
            safety
            * (
                _winner_count_slack(meta, n)
                + _oracle_side_slack(
                    meta, oracle_attr, oracle_cat, values, n, c
                )
            )
            + EPS
        )
        gap = achieved - float(oracle.gini)
        gaps.observe(max(gap, 0.0), bound)
        if gap > bound:
            findings.append(
                Finding(
                    builder,
                    "estimator_bound_exceeded",
                    f"sketch split gini {achieved:.6f} vs oracle "
                    f"{oracle.gini:.6f} exceeds ε-derived bound",
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
                    f"split gini {achieved:.6f} above node gini {node_gini:.6f}",
                    node_id=node_id,
                    value=achieved,
                    bound=node_gini,
                )
            )
    return findings, gaps


def _reorder(dataset: Dataset, order: str, seed: int) -> Dataset:
    """A copy of ``dataset`` with rows re-ordered per a battery profile."""
    n = dataset.n_records
    if order == "natural":
        return dataset
    if order == "sorted":
        perm = np.argsort(dataset.X[:, 0], kind="stable")
    elif order == "reversed":
        perm = np.argsort(dataset.X[:, 0], kind="stable")[::-1]
    elif order == "shuffled":
        perm = np.random.default_rng([seed, 0xC0FFEE]).permutation(n)
    else:
        raise ValueError(f"unknown stream order {order!r}")
    return dataset.take(perm)


def run_stream_differential(
    dataset: Dataset,
    config: BuilderConfig | None = None,
    *,
    eps: float = 0.02,
    chunk_size: int = 1024,
    safety: float = 2.0,
) -> tuple[StreamingResult, list[Finding], GapStats]:
    """Build a streaming tree on ``dataset`` (in row order) and verify it."""
    cfg = config if config is not None else DEFAULT_CONFIG
    trainer = StreamingTrainer(dataset.schema, cfg, eps=eps, record_members=True)
    result = trainer.fit(dataset, chunk_size=chunk_size)
    findings, gaps = check_streaming_tree(result, dataset, safety=safety)
    return result, findings, gaps


@dataclass
class StreamBatteryReport:
    """Aggregate result of a multi-seed streaming conformance sweep."""

    findings: list[Finding] = field(default_factory=list)
    rows: list[dict[str, object]] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not any(f.severity == "error" for f in self.findings)

    @property
    def n_splits(self) -> int:
        return sum(int(r["n_internal"]) for r in self.rows)


def run_stream_battery(
    n_seeds: int = 25,
    n_records: int = 3000,
    config: BuilderConfig | None = None,
    *,
    eps: float = 0.02,
    functions: tuple[str, ...] = ("F1", "F2", "F3", "F5", "F7"),
    orders: tuple[str, ...] = STREAM_ORDERS,
    chunk_size: int = 512,
    safety: float = 2.0,
) -> StreamBatteryReport:
    """The acceptance battery: seeds × functions × stream orders.

    Every sketch-chosen split of every run must sit within its ε-derived
    oracle bound.  Functions and orders cycle with the seed so the
    battery covers all profiles without a full cross product.
    """
    report = StreamBatteryReport()
    for seed in range(n_seeds):
        function = functions[seed % len(functions)]
        order = orders[seed % len(orders)]
        dataset = _reorder(
            generate_agrawal(function, n_records, seed=seed), order, seed
        )
        result, findings, gaps = run_stream_differential(
            dataset, config, eps=eps, chunk_size=chunk_size, safety=safety
        )
        report.findings.extend(findings)
        report.rows.append(
            {
                "seed": seed,
                "function": function,
                "order": order,
                "n_internal": gaps.n_internal,
                "n_exact": gaps.n_exact,
                "max_gap": gaps.max_gap,
                "max_bound": gaps.max_bound,
                "leaves": result.tree.n_leaves,
                "findings": len(findings),
            }
        )
    return report


__all__ = [
    "STREAM_ORDERS",
    "StreamBatteryReport",
    "check_streaming_tree",
    "run_stream_battery",
    "run_stream_differential",
]
