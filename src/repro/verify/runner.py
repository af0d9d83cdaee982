"""Orchestration behind ``cmp-repro verify``.

Runs the differential, conformance and metamorphic suites over a battery
of seeded adversarial datasets (profiles rotate across seeds so every
profile is covered), collects findings, and feeds span tracing / metrics
through the same :mod:`repro.obs` objects every other CLI path uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config import BuilderConfig
from repro.eval.treegen import ADVERSARIAL_PROFILES, adversarial_dataset
from repro.verify.differential import Finding, run_differential
from repro.verify.forest import run_forest_differential
from repro.verify.metamorphic import run_metamorphic

DEFAULT_BUILDERS = ("CMP-S", "CMP-B", "CMP", "CLOUDS", "SLIQ")


@dataclass
class VerifySummary:
    """Outcome of one ``cmp-repro verify`` invocation."""

    datasets_run: int = 0
    findings: list[Finding] = field(default_factory=list)
    rows: list[dict] = field(default_factory=list)
    meta_rows: list[dict] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """True when no error-severity finding surfaced anywhere."""
        return not any(f.severity == "error" for f in self.findings)

    def builder_rows(self) -> list[dict]:
        """Per-builder aggregate over every dataset (CLI summary table)."""
        agg: dict[str, dict] = {}
        for row in self.rows:
            a = agg.setdefault(
                row["builder"],
                {
                    "builder": row["builder"],
                    "datasets": 0,
                    "internal": 0,
                    "exact": 0,
                    "max_gap": 0.0,
                    "max_bound": 0.0,
                    "min_accuracy": 1.0,
                    "min_oracle_agree": 1.0,
                    "parallel_ok": True,
                },
            )
            a["datasets"] += 1
            a["internal"] += row["internal"]
            a["exact"] += row["exact"]
            a["max_gap"] = max(a["max_gap"], row["max_gap"])
            a["max_bound"] = max(a["max_bound"], row["max_bound"])
            a["min_accuracy"] = min(a["min_accuracy"], row["accuracy"])
            a["min_oracle_agree"] = min(a["min_oracle_agree"], row["oracle_agree"])
            # ``n/a`` (no scan engine) is truthy, so it stays ``n/a``.
            a["parallel_ok"] = a["parallel_ok"] and row["parallel_ok"]
        return list(agg.values())


def run_verify(
    config: BuilderConfig,
    seeds: int = 25,
    profiles: tuple[str, ...] = tuple(ADVERSARIAL_PROFILES),
    builders: tuple[str, ...] = DEFAULT_BUILDERS,
    n: int = 300,
    metamorphic_checks: tuple[str, ...] | None = None,
    safety: float = 2.0,
    accuracy_tol: float = 0.05,
    forest_every: int = 5,
    tracer=None,
    registry=None,
    log=None,
) -> VerifySummary:
    """Differential + metamorphic verification over ``seeds`` datasets.

    Dataset ``i`` uses profile ``profiles[i % len(profiles)]`` with seed
    ``i`` — deterministic, and every profile is exercised once the seed
    count reaches the profile count.  ``metamorphic_checks=None`` runs
    the full metamorphic battery (including the soft accuracy-delta
    checks).  :mod:`repro.verify.conformance` fills ``parallel_ok``
    (``n/a``: no scan engine).  Every ``forest_every``-th dataset (0
    disables) also runs
    :func:`repro.verify.forest.run_forest_differential`: each shared-scan
    bagged member is checked bit-identical to its solo build and against
    the exact-split oracle on its own bootstrap sample, and both ensemble
    trainers must conform across the same matrix.
    """
    # Imported here: ``import repro.verify`` loads no more than it needs.
    from repro.obs.trace import NULL_TRACER
    from repro.verify.conformance import CASES_BY_NAME, check_case

    tracer = tracer if tracer is not None else NULL_TRACER
    summary = VerifySummary()
    counter = None
    finding_counter = None
    if registry is not None:
        counter = registry.counter(
            "verify_datasets_total", "datasets checked by cmp-repro verify"
        )
        finding_counter = registry.counter(
            "verify_findings_total", "error findings raised by cmp-repro verify"
        )

    for i in range(seeds):
        profile = profiles[i % len(profiles)]
        dataset = adversarial_dataset(profile, n=n, seed=i)
        with tracer.span("verify_dataset", profile=profile, seed=i) as span:
            with tracer.span("differential"):
                diff = run_differential(
                    dataset, config, builders=builders, safety=safety
                )
            conformance: dict[str, list[Finding]] = {}
            with tracer.span("conformance"):
                for outcome in diff.outcomes:
                    name = outcome.builder
                    if name == "CLOUDS":
                        name = f"CLOUDS-{config.clouds_mode.upper()}"
                    if name in CASES_BY_NAME:
                        conformance[outcome.builder] = check_case(
                            CASES_BY_NAME[name], dataset, config
                        )
            with tracer.span("metamorphic"):
                meta = run_metamorphic(
                    dataset,
                    config,
                    builders=builders,
                    checks=metamorphic_checks,
                    seed=i,
                    accuracy_tol=accuracy_tol,
                )
            forest_findings: list[Finding] = []
            if forest_every and i % forest_every == 0:
                with tracer.span("forest_differential"):
                    forest = run_forest_differential(
                        dataset, config, safety=safety, tracer=tracer
                    )
                forest_findings = forest.findings
            n_errors = sum(
                1
                for f in diff.findings
                + meta.findings
                + forest_findings
                + [f for found in conformance.values() for f in found]
                if f.severity == "error"
            )
            span.annotate(findings=n_errors)
        summary.datasets_run += 1
        summary.findings.extend(diff.findings)
        for found in conformance.values():
            summary.findings.extend(found)
        summary.findings.extend(meta.findings)
        summary.findings.extend(forest_findings)
        for row in diff.rows():
            found = conformance.get(row["builder"])
            parallel_ok = "n/a" if found is None else not found
            summary.rows.append(
                {"profile": profile, "seed": i, **row, "parallel_ok": parallel_ok}
            )
        for row in meta.rows:
            if row["status"] != "ok":
                summary.meta_rows.append({"profile": profile, "seed": i, **row})
        if counter is not None:
            counter.inc()
        if finding_counter is not None and n_errors:
            finding_counter.inc(n_errors)
        if log is not None:
            status = "ok" if n_errors == 0 else f"{n_errors} FINDING(S)"
            log(f"[{i + 1}/{seeds}] {profile:16s} {status}")
    return summary


__all__ = ["DEFAULT_BUILDERS", "VerifySummary", "run_verify"]
