"""Drivers that regenerate every table and figure of the paper's evaluation.

Each function returns structured rows (lists of dicts) so tests can assert
the paper's *shape* claims and benchmarks can print the same tables the
paper reports.  Record counts default to laptop scale (the paper used
200k-2.5M records on 1999 hardware); every driver takes explicit sizes so
the full-scale sweep is one argument away.  See DESIGN.md §4 for the
experiment index and EXPERIMENTS.md for measured-vs-paper results.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.baselines.clouds import CloudsBuilder
from repro.baselines.rainforest import RainForestBuilder
from repro.baselines.sprint import SprintBuilder
from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.gini import exact_best_threshold
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.intervals import (
    analyze_attribute,
    analyze_attributes,
    choose_split_attribute,
)
from repro.core.builder import resolve_exact_threshold
from repro.core.cmp_s import merge_contiguous
from repro.data.dataset import Dataset
from repro.data.discretize import equal_depth_edges
from repro.data.statlog import STATLOG_SPECS, generate_statlog
from repro.data.synthetic import generate_agrawal, generate_function_f
from repro.eval.harness import RunRecord, run_builder
from repro.obs.export import record_build_stats
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import NullTracer, Tracer

#: Builders compared in Figures 16-18.
COMPARISON_BUILDERS = (CMPBuilder, SprintBuilder, RainForestBuilder, CloudsBuilder)

#: The CMP family compared in Figures 14-15.
FAMILY_BUILDERS = (CMPSBuilder, CMPBBuilder, CMPBuilder)


def default_config(**overrides: object) -> BuilderConfig:
    """The configuration used by the paper-reproduction experiments.

    100 intervals (the paper uses "100 to 120"), at most two alive
    intervals, PUBLIC(1) pruning during construction (Figures 4/10,
    line 20).
    """
    base = dict(
        n_intervals=100,
        max_alive=2,
        max_depth=12,
        min_records=50,
        prune="public",
    )
    base.update(overrides)
    return BuilderConfig(**base)  # type: ignore[arg-type]


# ---------------------------------------------------------------------------
# Table 1 — exact vs CMP root splits under discretization
# ---------------------------------------------------------------------------


def _exact_root_split(dataset: Dataset) -> tuple[int, float]:
    """Best exact root split over all attributes (SPRINT semantics)."""
    best_attr, best_gini = -1, np.inf
    for j, attr in enumerate(dataset.schema.attributes):
        col = dataset.column(j)
        if attr.is_continuous:
            try:
                __, g = exact_best_threshold(col, dataset.y, dataset.n_classes)
            except ValueError:
                continue
        else:
            hist = CategoryHistogram(attr.cardinality, dataset.n_classes)
            hist.update(col, dataset.y)
            try:
                __, g = hist.best_subset_split()
            except ValueError:
                continue
        if g < best_gini:
            best_attr, best_gini = j, float(g)
    return best_attr, best_gini


def _cmp_root_split(
    dataset: Dataset, n_intervals: int, max_alive: int
) -> tuple[int, float, int]:
    """CMP-S root split under discretization.

    Returns ``(attribute, resolved_gini, n_alive)`` where the gini is the
    exact value CMP obtains after resolving the alive intervals from the
    buffered records ("gini evaluated on records in alive intervals at
    next round", Table 1 note 3).
    """
    hists: dict[int, ClassHistogram] = {}
    for j in dataset.schema.continuous_indices():
        col = dataset.column(j)
        hist = ClassHistogram(equal_depth_edges(col, n_intervals), dataset.n_classes)
        hist.update(col, dataset.y)
        hists[j] = hist
    winner = choose_split_attribute(analyze_attributes(list(hists.items())), max_alive)
    if winner is None:
        return -1, np.inf, 0
    hist = hists[winner.attr]
    runs = merge_contiguous(winner.alive)
    alive_bounds: list[tuple[float, float]] = []
    alive_cum_below: list[np.ndarray] = []
    q = hist.n_intervals
    for i0, i1 in runs:
        lo = -np.inf if i0 == 0 else float(hist.edges[i0 - 1])
        hi = np.inf if i1 == q - 1 else float(hist.edges[i1])
        alive_bounds.append((lo, hi))
        alive_cum_below.append(hist.cum_below(i0))
    col = dataset.column(winner.attr)
    in_alive = np.zeros(dataset.n_records, dtype=bool)
    for lo, hi in alive_bounds:
        in_alive |= (col > lo) & (col <= hi)
    res = resolve_exact_threshold(
        hist.totals(),
        float(winner.edges[winner.best_boundary]) if winner.has_boundaries else None,
        winner.gini_min,
        alive_bounds,
        alive_cum_below,
        col[in_alive],
        dataset.y[in_alive],
    )
    gini = res.gini if res is not None else np.inf
    return winner.attr, float(gini), len(winner.alive)


#: (dataset name, loader, interval counts) reproduced in Table 1.
TABLE1_DATASETS: list[tuple[str, str, tuple[int, ...]]] = [
    ("Letter", "statlog", (10, 15)),
    ("Satimage", "statlog", (10, 15)),
    ("Segment", "statlog", (10, 15)),
    ("Shuttle", "statlog", (10, 15)),
    ("Function 2", "agrawal:F2", (50, 100)),
    ("Function 7", "agrawal:F7", (50, 100)),
]


def table1(
    seed: int = 0,
    agrawal_records: int = 100_000,
    max_alive: int = 2,
) -> list[dict[str, object]]:
    """Reproduce Table 1: splits by the exact algorithm vs CMP.

    The paper's convention: '-' for the CMP columns means "same as the
    exact algorithm".
    """
    rows: list[dict[str, object]] = []
    for name, source, interval_counts in TABLE1_DATASETS:
        if source == "statlog":
            dataset = generate_statlog(name.lower(), seed=seed)
        else:
            function = source.split(":")[1]
            dataset = generate_agrawal(function, agrawal_records, seed=seed)
        exact_attr, exact_gini = _exact_root_split(dataset)
        for q in interval_counts:
            cmp_attr, cmp_gini, n_alive = _cmp_root_split(dataset, q, max_alive)
            same_attr = cmp_attr == exact_attr
            same_gini = abs(cmp_gini - exact_gini) < 1e-9
            rows.append(
                {
                    "dataset": name,
                    "records": dataset.n_records,
                    "exact_attr": exact_attr,
                    "exact_gini": round(exact_gini, 6),
                    "intervals": q,
                    "alive": n_alive,
                    "cmp_attr": "-" if same_attr else cmp_attr,
                    "cmp_gini": "-" if same_gini else round(cmp_gini, 6),
                }
            )
    return rows


# ---------------------------------------------------------------------------
# Figure 2 — gini curve with alive intervals (illustration)
# ---------------------------------------------------------------------------


def fig2_gini_curve(
    n_records: int = 50_000,
    n_intervals: int = 40,
    seed: int = 0,
    attribute: str = "salary",
) -> dict[str, np.ndarray]:
    """Boundary ginis, interval estimates and alive intervals for one
    attribute of the Function 2 root — the data behind Figure 2."""
    dataset = generate_agrawal("F2", n_records, seed=seed)
    j = dataset.schema.index_of(attribute)
    col = dataset.column(j)
    hist = ClassHistogram(equal_depth_edges(col, n_intervals), dataset.n_classes)
    hist.update(col, dataset.y)
    analysis = analyze_attribute(j, hist)
    from repro.core.intervals import select_alive_intervals

    alive = select_alive_intervals(analysis, max_alive=2)
    return {
        "edges": hist.edges,
        "boundary_gini": analysis.boundary_gini,
        "estimates": analysis.est,
        "gini_min": np.array([analysis.gini_min]),
        "alive_intervals": np.array(alive, dtype=np.int64),
    }


# ---------------------------------------------------------------------------
# Figures 14-19 — scalability / comparison / memory sweeps
# ---------------------------------------------------------------------------


def _sweep(
    builders: Sequence[type],
    function: str,
    sizes: Sequence[int],
    config: BuilderConfig,
    seed: int,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
    dataset_factory=generate_agrawal,
) -> list[RunRecord]:
    """Run every builder at every size; optionally trace + export metrics.

    ``tracer`` is shared by every build (one ``build`` root span each);
    ``registry`` accumulates each build's counters labeled by builder
    name and training-set size.
    """
    records: list[RunRecord] = []
    for n in sizes:
        dataset = dataset_factory(function, n, seed=seed)
        for builder_cls in builders:
            record, result = run_builder(builder_cls(config, tracer=tracer), dataset)
            if registry is not None:
                record_build_stats(
                    registry,
                    result.stats,
                    {"builder": record.builder, "records": str(n)},
                )
            records.append(record)
    return records


def scalability(
    function: str = "F2",
    sizes: Sequence[int] = (20_000, 50_000, 100_000),
    config: BuilderConfig | None = None,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
) -> list[RunRecord]:
    """Figures 14-15: CMP-S vs CMP-B vs CMP as the training set grows."""
    return _sweep(
        FAMILY_BUILDERS, function, sizes, config or default_config(), seed,
        tracer, registry,
    )


def comparison(
    function: str = "F2",
    sizes: Sequence[int] = (20_000, 50_000, 100_000),
    config: BuilderConfig | None = None,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
) -> list[RunRecord]:
    """Figures 16-17: CMP vs SPRINT, RainForest and CLOUDS."""
    return _sweep(
        COMPARISON_BUILDERS, function, sizes, config or default_config(), seed,
        tracer, registry,
    )


def comparison_f(
    sizes: Sequence[int] = (20_000, 50_000),
    config: BuilderConfig | None = None,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
) -> list[RunRecord]:
    """Figure 18: the linearly-correlated Function f workload.

    CMP detects the ``salary + commission`` correlation and builds a far
    smaller tree in fewer scans than univariate algorithms.
    """
    return _sweep(
        COMPARISON_BUILDERS, "f", sizes, config or default_config(), seed,
        tracer, registry,
        dataset_factory=lambda __, n, seed: generate_function_f(n, seed=seed),
    )


def memory_usage(
    function: str = "F2",
    sizes: Sequence[int] = (20_000, 50_000, 100_000),
    config: BuilderConfig | None = None,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
) -> list[RunRecord]:
    """Figure 19: peak tracked memory of CMP vs RainForest vs SPRINT."""
    builders = (CMPBuilder, RainForestBuilder, SprintBuilder)
    return _sweep(
        builders, function, sizes, config or default_config(), seed,
        tracer, registry,
    )


def prediction_accuracy(
    n_records: int = 100_000,
    config: BuilderConfig | None = None,
    seed: int = 0,
    tracer: "Tracer | NullTracer | None" = None,
    registry: MetricsRegistry | None = None,
) -> dict[str, float]:
    """§2.2: fraction of predictSplit predictions that come true on
    Function 2 (the paper reports about 80%)."""
    dataset = generate_agrawal("F2", n_records, seed=seed)
    record, result = run_builder(
        CMPBBuilder(config or default_config(), tracer=tracer), dataset
    )
    if registry is not None:
        record_build_stats(
            registry,
            result.stats,
            {"builder": record.builder, "records": str(n_records)},
        )
    return {
        "predictions_made": float(result.stats.predictions_made),
        "predictions_correct": float(result.stats.predictions_correct),
        "accuracy": result.stats.prediction_accuracy,
    }


def records_as_rows(records: Sequence[RunRecord]) -> list[dict[str, object]]:
    """Convenience: RunRecords to table rows."""
    return [r.as_dict() for r in records]
