"""Differential verification of shared-scan ensembles.

Three layers of checks on top of :mod:`repro.verify.differential`:

1. **Member-vs-solo bit identity** — every member of a shared-scan
   bagged forest must equal, node for node and bit for bit, the tree a
   standalone :class:`~repro.core.cmp_s.CMPSBuilder` builds on the
   member's materialized bootstrap sample with the member's derived
   seed.  This is the central claim of
   :class:`~repro.ensemble.bagging.BaggedForestBuilder`.
2. **Per-member oracle checks** — each member tree is then verified
   against the exact-split oracle *on its own bootstrap sample* with
   :func:`~repro.verify.differential.check_tree_against_oracle`, so the
   paper's estimator bound holds inside the ensemble too.
3. **Conformance** — the bagged and boosted cases of
   :mod:`repro.verify.conformance` run their engine, kernel, fault and
   resume matrix on the dataset (member signatures for bagging, the
   packed fingerprint for boosting).  Finally the packed
   :class:`~repro.core.compiled.CompiledForest` scoring path must agree
   bit-for-bit with an explicit per-member accumulation loop.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.config import BuilderConfig
from repro.core.cmp_s import CMPSBuilder
from repro.data.dataset import Dataset
from repro.ensemble import (
    BaggedForestBuilder,
    HistGradientBoostingBuilder,
    bootstrap_indices,
    member_seed,
)
from repro.verify.differential import (
    Finding,
    GapStats,
    check_tree_against_oracle,
    tree_signature,
)

@dataclass
class ForestReport:
    """Everything :func:`run_forest_differential` learned about one dataset."""

    findings: list[Finding] = field(default_factory=list)
    member_stats: list[GapStats] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding was raised."""
        return not any(f.severity == "error" for f in self.findings)


def forest_signatures(forest) -> tuple:
    """Member tree signatures, in member order."""
    return tuple(tree_signature(tree) for tree in forest.members)


def run_forest_differential(
    dataset: Dataset,
    config: BuilderConfig,
    n_trees: int = 3,
    n_iterations: int = 2,
    safety: float = 2.0,
    tracer=None,
) -> ForestReport:
    """Verify the shared-scan ensembles on one dataset (module docstring)."""
    n = dataset.n_records
    cfg = config.with_(
        prune="none",
        reservoir_capacity=max(config.reservoir_capacity, n),
        scan_workers=1,
        scan_backend="thread",
    )
    report = ForestReport()

    try:
        shared = BaggedForestBuilder(cfg, n_trees=n_trees, tracer=tracer).build(dataset)
    except Exception as exc:  # noqa: BLE001 - crashes become findings
        report.findings.append(
            Finding("bagged-CMP-S", "crash", f"{type(exc).__name__}: {exc}")
        )
        return report

    # --- 1 + 2: every member vs its solo twin, then vs the oracle. --------
    for t, member in enumerate(shared.forest.members):
        label = f"bagged-CMP-S[{t}]"
        boot = dataset.take(np.sort(bootstrap_indices(cfg.seed, t, n)))
        solo_cfg = cfg.with_(seed=member_seed(cfg.seed, t))
        solo = CMPSBuilder(solo_cfg, tracer=tracer).build(boot).tree
        if tree_signature(member) != tree_signature(solo):
            report.findings.append(
                Finding(
                    label,
                    "shared_scan_divergence",
                    "shared-scan member is not bit-identical to the solo "
                    "build on its bootstrap sample",
                )
            )
        member_findings, gaps = check_tree_against_oracle(
            member, boot, solo_cfg, label, safety=safety
        )
        report.findings.extend(member_findings)
        report.member_stats.append(gaps)

    # --- 3: the conformance matrix of both ensemble cases. --------------
    # Imported here: ``import repro.verify`` loads no more than it needs.
    from repro.verify.conformance import CASES_BY_NAME, check_case

    for name in ("bagged-CMP-S", "hist-gbdt"):
        report.findings.extend(check_case(CASES_BY_NAME[name], dataset, cfg))

    boost_forest = None
    try:
        boost_forest = HistGradientBoostingBuilder(
            cfg, n_iterations=n_iterations, tracer=tracer
        ).build(dataset).forest
    except Exception as exc:  # noqa: BLE001
        report.findings.append(
            Finding("hist-gbdt", "crash", f"{type(exc).__name__}: {exc}")
        )

    # --- Last: packed scoring vs explicit per-member accumulation. -------
    for label, forest in (
        ("bagged-CMP-S", shared.forest),
        ("hist-gbdt", boost_forest),
    ):
        if forest is None:
            continue
        cf = forest.compiled()
        X = dataset.X
        acc = np.tile(cf.base, (len(X), 1))
        for t, member in enumerate(cf.members):
            rows = cf.tree_offsets[t] + member.route(X)
            acc += cf.values[cf.leaf_row[rows]]
        if not np.array_equal(cf.decision_values(X), acc):
            report.findings.append(
                Finding(
                    label,
                    "packed_scoring_divergence",
                    "CompiledForest.decision_values disagrees with the "
                    "per-member accumulation loop",
                )
            )
    return report


__all__ = [
    "ForestReport",
    "forest_signatures",
    "run_forest_differential",
]
