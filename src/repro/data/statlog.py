"""Synthetic stand-ins for the STATLOG datasets used in Table 1.

The paper's Table 1 uses four STATLOG datasets (Letter, Satimage, Segment,
Shuttle) from [6] plus two large Agrawal functions.  UCI downloads are not
available offline, so we generate stand-ins that preserve what Table 1
actually exercises:

* the same record counts, attribute counts and class counts as the
  originals;
* class-conditional structure (Gaussian mixtures per class) so that a best
  univariate split exists and is non-trivial to locate;
* controllable difficulty: a few attributes are made discriminative with
  class-dependent means, the rest are noise, so discretization with too few
  intervals can miss the best attribute — the failure mode Table 1 reports
  for q = 10 on Letter and Segment.

This is a documented substitution (DESIGN.md §5): the experiment compares an
exact algorithm's root split against CMP's discretized root split on the
*same* data, so any dataset with the right shape exercises the identical
code path.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.data.dataset import Dataset
from repro.data.schema import Schema, continuous


@dataclass(frozen=True)
class StatlogSpec:
    """Shape of one STATLOG stand-in."""

    name: str
    n_records: int
    n_attributes: int
    n_classes: int
    #: number of genuinely discriminative attributes
    n_informative: int
    #: class-mean separation in units of the within-class std deviation
    separation: float


#: Record/attribute/class counts follow the paper's Table 1 and the STATLOG
#: project descriptions.
STATLOG_SPECS: dict[str, StatlogSpec] = {
    "letter": StatlogSpec("letter", 15_000, 16, 26, n_informative=6, separation=1.1),
    "satimage": StatlogSpec("satimage", 4_435, 36, 6, n_informative=8, separation=1.6),
    "segment": StatlogSpec("segment", 2_310, 19, 7, n_informative=5, separation=1.2),
    "shuttle": StatlogSpec("shuttle", 43_500, 9, 7, n_informative=3, separation=3.0),
}


def _schema_for(spec: StatlogSpec) -> Schema:
    return Schema(
        attributes=tuple(continuous(f"a{i}") for i in range(spec.n_attributes)),
        class_labels=tuple(f"c{i}" for i in range(spec.n_classes)),
    )


def generate_statlog(name: str, seed: int = 0) -> Dataset:
    """Generate the stand-in dataset called ``name``.

    Classes are drawn with mildly unbalanced priors (Dirichlet), informative
    attributes get class-dependent means with per-class scales, and the
    remaining attributes are pure noise shared across classes.
    """
    try:
        spec = STATLOG_SPECS[name.lower()]
    except KeyError:
        raise ValueError(
            f"unknown STATLOG stand-in {name!r}; expected one of "
            f"{sorted(STATLOG_SPECS)}"
        ) from None
    name_hash = zlib.crc32(spec.name.encode("utf-8"))
    rng = np.random.default_rng(seed ^ name_hash)
    priors = rng.dirichlet(np.full(spec.n_classes, 8.0))
    y = rng.choice(spec.n_classes, size=spec.n_records, p=priors).astype(np.int64)

    X = rng.normal(0.0, 1.0, size=(spec.n_records, spec.n_attributes))
    # Class-dependent means on the informative attributes only.  Each
    # informative attribute separates a different grouping of the classes so
    # no two attributes are interchangeable and one of them is clearly best.
    for j in range(spec.n_informative):
        class_means = rng.normal(0.0, spec.separation * (1.0 + 0.25 * j), spec.n_classes)
        class_scales = rng.uniform(0.8, 1.3, spec.n_classes)
        col = X[:, j]
        col *= class_scales[y]
        col += class_means[y]
    # Give every attribute a distinct affine range so discretization edges
    # differ per attribute, as they would on the real data.
    offsets = rng.uniform(-5.0, 5.0, spec.n_attributes)
    scales = rng.uniform(0.5, 20.0, spec.n_attributes)
    X *= scales
    X += offsets
    return Dataset(X, y, _schema_for(spec))


def all_statlog(seed: int = 0) -> dict[str, Dataset]:
    """Generate every stand-in, keyed by dataset name."""
    return {name: generate_statlog(name, seed=seed) for name in STATLOG_SPECS}
