"""Adversarial dataset fuzzing with automatic shrinking.

:func:`run_fuzz` draws training sets from the adversarial profiles in
:mod:`repro.eval.treegen` (heavy ties, near-boundary values, class skew,
singleton classes, constant attributes) and runs the full differential +
metamorphic check battery on each.  Any failing dataset is *shrunk* —
a ddmin-style search over row blocks and attribute removal that keeps
the failure alive while the dataset gets smaller — and packaged as a
replayable :class:`FailureCase`.

Cases serialize to JSON under ``tests/data/corpus/``; float values
round-trip exactly (``json`` emits ``repr`` precision), so a replayed
case rebuilds the bit-identical dataset and re-runs the bit-identical
checks.  ``tests/test_verify_corpus.py`` replays every committed case on
every run.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from repro.config import BuilderConfig
from repro.data.dataset import Dataset
from repro.data.schema import Attribute, AttributeKind, Schema
from repro.eval.treegen import ADVERSARIAL_PROFILES, adversarial_dataset
from repro.verify.differential import Finding, run_differential
from repro.verify.metamorphic import run_metamorphic

#: Format tag written into every corpus file.
CORPUS_FORMAT = "cmp-verify-case-v1"

#: Metamorphic checks with deterministic strict invariants — the fuzz
#: default.  The soft accuracy-delta checks stay available via the CLI
#: but would dominate fuzz wall-clock for little discriminating power.
DEFAULT_METAMORPHIC = ("shuffle", "duplicate", "scale_pow2", "constant_categorical")


@dataclass
class FailureCase:
    """One shrunk failing dataset plus everything needed to replay it."""

    name: str
    description: str
    profile: str
    seed: int
    schema_attrs: list[dict]
    class_labels: list[str]
    X: list[list[float]]
    y: list[int]
    config_overrides: dict = field(default_factory=dict)
    builders: list[str] = field(
        default_factory=lambda: ["CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ"]
    )
    metamorphic_checks: list[str] = field(
        default_factory=lambda: list(DEFAULT_METAMORPHIC)
    )
    check_seed: int = 0
    safety: float = 2.0
    accuracy_tol: float = 0.05
    findings: list[str] = field(default_factory=list)
    format: str = CORPUS_FORMAT

    def dataset(self) -> Dataset:
        """Rebuild the exact dataset this case captured."""
        attrs = []
        for a in self.schema_attrs:
            attrs.append(
                Attribute(
                    a["name"],
                    AttributeKind(a["kind"]),
                    tuple(a.get("categories", ())),
                )
            )
        schema = Schema(tuple(attrs), tuple(self.class_labels))
        X = np.asarray(self.X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(len(self.y), -1)
        return Dataset(X, np.asarray(self.y, dtype=np.int64), schema)

    def config(self, base: BuilderConfig | None = None) -> BuilderConfig:
        """The builder config the case was captured under."""
        cfg = base if base is not None else BuilderConfig()
        return replace(cfg, **self.config_overrides)


def _schema_to_dicts(schema: Schema) -> tuple[list[dict], list[str]]:
    attrs = [
        {
            "name": a.name,
            "kind": a.kind.value,
            "categories": list(a.categories),
        }
        for a in schema.attributes
    ]
    return attrs, list(schema.class_labels)


def _config_overrides(config: BuilderConfig) -> dict:
    """Fields of ``config`` that differ from the defaults (JSON-safe)."""
    default = BuilderConfig()
    out = {}
    for f in fields(BuilderConfig):
        value = getattr(config, f.name)
        if value != getattr(default, f.name):
            out[f.name] = value
    return out


def save_case(case: FailureCase, path: str) -> None:
    """Write one case as pretty-printed JSON (atomic rename)."""
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(asdict(case), fh, indent=1)
        fh.write("\n")
    os.replace(tmp, path)


def load_case(path: str) -> FailureCase:
    """Read one case back; rejects unknown formats."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    if raw.get("format") != CORPUS_FORMAT:
        raise ValueError(
            f"{path}: unknown corpus format {raw.get('format')!r} "
            f"(expected {CORPUS_FORMAT!r})"
        )
    known = {f.name for f in fields(FailureCase)}
    return FailureCase(**{k: v for k, v in raw.items() if k in known})


def default_checks(
    config: BuilderConfig,
    builders: tuple[str, ...] = ("CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ"),
    metamorphic_checks: tuple[str, ...] | None = DEFAULT_METAMORPHIC,
    safety: float = 2.0,
    accuracy_tol: float = 0.05,
    check_seed: int = 0,
):
    """The fuzz predicate: dataset -> list of error findings.

    Deterministic for a fixed dataset — the same function drives fuzzing,
    shrinking and corpus replay, so a shrunk case keeps failing for the
    same reason it was captured.
    """

    def run(dataset: Dataset) -> list[Finding]:
        findings = []
        report = run_differential(dataset, config, builders=builders, safety=safety)
        findings.extend(f for f in report.findings if f.severity == "error")
        if metamorphic_checks:
            meta = run_metamorphic(
                dataset,
                config,
                builders=builders,
                checks=tuple(metamorphic_checks),
                seed=check_seed,
                accuracy_tol=accuracy_tol,
            )
            findings.extend(f for f in meta.findings if f.severity == "error")
        return findings

    return run


def replay_case(case: FailureCase, base_config: BuilderConfig | None = None):
    """Re-run a stored case's exact checks; returns the findings."""
    checks = default_checks(
        case.config(base_config),
        builders=tuple(case.builders),
        metamorphic_checks=tuple(case.metamorphic_checks) or None,
        safety=case.safety,
        accuracy_tol=case.accuracy_tol,
        check_seed=case.check_seed,
    )
    return checks(case.dataset())


def shrink_case(
    dataset: Dataset,
    fails,
    max_evals: int = 60,
) -> Dataset:
    """ddmin-lite: smallest dataset (rows, then attributes) still failing.

    ``fails(candidate) -> bool`` must be deterministic.  Row shrinking
    removes contiguous blocks at increasing granularity; attribute
    shrinking drops columns while keeping at least two continuous
    attributes when the original had them (CMP-B needs two) and at least
    one attribute overall.  ``max_evals`` bounds the predicate calls so
    shrinking never dominates a fuzz run.
    """
    evals = 0

    def still_fails(candidate: Dataset) -> bool:
        nonlocal evals
        if evals >= max_evals:
            return False
        evals += 1
        return bool(fails(candidate))

    # Row blocks.
    granularity = 2
    while dataset.n_records >= 2 and evals < max_evals:
        n = dataset.n_records
        chunk = max(1, math.ceil(n / granularity))
        reduced = False
        for start in range(0, n, chunk):
            keep = np.ones(n, dtype=bool)
            keep[start : start + chunk] = False
            if not keep.any():
                continue
            candidate = Dataset(dataset.X[keep], dataset.y[keep], dataset.schema)
            if still_fails(candidate):
                dataset = candidate
                granularity = max(granularity - 1, 2)
                reduced = True
                break
        if not reduced:
            if chunk == 1:
                break
            granularity = min(n, granularity * 2)

    # Attributes.
    min_continuous = 2 if len(dataset.schema.continuous_indices()) >= 2 else 1
    changed = True
    while changed and evals < max_evals:
        changed = False
        for j in range(dataset.schema.n_attributes):
            attrs = dataset.schema.attributes
            if len(attrs) <= 1:
                break
            remaining_cont = sum(
                1 for i, a in enumerate(attrs) if a.is_continuous and i != j
            )
            if attrs[j].is_continuous and remaining_cont < min_continuous:
                continue
            keep_cols = [i for i in range(len(attrs)) if i != j]
            schema = Schema(
                tuple(attrs[i] for i in keep_cols), dataset.schema.class_labels
            )
            candidate = Dataset(dataset.X[:, keep_cols], dataset.y, schema)
            if still_fails(candidate):
                dataset = candidate
                changed = True
                break
    return dataset


def run_fuzz(
    config: BuilderConfig,
    profiles: tuple[str, ...] = tuple(ADVERSARIAL_PROFILES),
    seeds=range(5),
    n: int = 300,
    n_classes: int = 3,
    builders: tuple[str, ...] = ("CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ"),
    metamorphic_checks: tuple[str, ...] | None = DEFAULT_METAMORPHIC,
    safety: float = 2.0,
    accuracy_tol: float = 0.05,
    shrink: bool = True,
    max_shrink_evals: int = 60,
    log=None,
) -> tuple[list[FailureCase], int]:
    """Fuzz every (profile, seed) pair; returns (failure cases, runs).

    Failures are shrunk (when ``shrink``) and returned as replayable
    :class:`FailureCase` objects; the caller decides where to persist
    them (the CLI and the nightly workflow write ``tests/data/corpus/``).
    """
    checks = default_checks(
        config,
        builders=builders,
        metamorphic_checks=metamorphic_checks,
        safety=safety,
        accuracy_tol=accuracy_tol,
    )
    cases: list[FailureCase] = []
    runs = 0
    for profile in profiles:
        for seed in seeds:
            runs += 1
            dataset = adversarial_dataset(profile, n=n, seed=seed, n_classes=n_classes)
            findings = checks(dataset)
            if not findings:
                continue
            if log is not None:
                log(
                    f"FAIL {profile} seed={seed}: {len(findings)} finding(s); "
                    f"first: {findings[0]}"
                )
            if shrink:
                dataset = shrink_case(
                    dataset, lambda d: bool(checks(d)), max_evals=max_shrink_evals
                )
                findings = checks(dataset)
            attrs, labels = _schema_to_dicts(dataset.schema)
            cases.append(
                FailureCase(
                    name=f"{profile}-s{seed}",
                    description=(
                        f"fuzz failure on profile {profile!r} seed {seed}, "
                        f"shrunk to {dataset.n_records} records x "
                        f"{dataset.schema.n_attributes} attributes"
                    ),
                    profile=profile,
                    seed=int(seed),
                    schema_attrs=attrs,
                    class_labels=labels,
                    X=[[float(v) for v in row] for row in dataset.X],
                    y=[int(v) for v in dataset.y],
                    config_overrides=_config_overrides(config),
                    builders=list(builders),
                    metamorphic_checks=list(metamorphic_checks or ()),
                    safety=safety,
                    accuracy_tol=accuracy_tol,
                    findings=[str(f) for f in findings],
                )
            )
    return cases, runs


__all__ = [
    "CORPUS_FORMAT",
    "DEFAULT_METAMORPHIC",
    "FailureCase",
    "default_checks",
    "load_case",
    "replay_case",
    "run_fuzz",
    "save_case",
    "shrink_case",
]
