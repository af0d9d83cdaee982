"""Differential & metamorphic correctness harness.

CMP's value proposition is that interval-based estimation, deferred split
resolution and bivariate matrices build trees *as good as* an exact
exhaustive-split classifier at a fraction of the I/O.  This package turns
that claim into machine-checkable assertions:

* :mod:`repro.verify.oracle` — a brute-force exact tree builder
  (exhaustive gini over every cut point of every attribute, exhaustive
  categorical subsets, optional exhaustive two-attribute linear splits on
  tiny data) used as ground truth.
* :mod:`repro.verify.differential` — grows CMP-S/CMP-B/CMP and the
  in-repo CLOUDS/SLIQ baselines on one dataset and asserts per-node
  gini-optimality within the paper's estimator guarantees, plus
  routing/count consistency and accuracy deltas against the oracle.
* :mod:`repro.verify.conformance` — the bit-identity matrix of every
  builder that scans through the scan engine (import the module).
* :mod:`repro.verify.metamorphic` — invariance checks (row shuffling and
  duplication, label permutation, strictly monotone transforms, constant
  and ID column injection), each with a stated expected invariant.
* :mod:`repro.verify.fuzz` — adversarial dataset fuzzing with automatic
  shrinking of failing datasets into a replayable JSON corpus.
* :mod:`repro.verify.forest` — shared-scan ensemble checks: every bagged
  member bit-identical to its solo build and oracle-verified on its own
  bootstrap sample, the conformance matrix of both ensemble trainers,
  and packed-scoring parity.
* :mod:`repro.verify.stream` — the streaming extension: every
  sketch-chosen split of the one-pass trainer replayed against the exact
  oracle within an explicit ε-derived bound, swept over seeds ×
  generator functions × stream orders.
* :mod:`repro.verify.walker` — the object walker, the node-by-node
  reference that compiled prediction must match bit for bit.
* :mod:`repro.verify.runner` — the ``cmp-repro verify`` orchestration,
  wired into :mod:`repro.obs` tracing and metrics.

Every future scaling PR (sharding, streaming) is expected to keep
``cmp-repro verify`` green.
"""

from repro.verify.differential import (
    BUILDER_FACTORIES,
    DifferentialReport,
    Finding,
    check_tree_against_oracle,
    node_members,
    run_differential,
    tree_signature,
)
from repro.verify.fuzz import (
    FailureCase,
    default_checks,
    load_case,
    replay_case,
    run_fuzz,
    save_case,
    shrink_case,
)
from repro.verify.forest import (
    ForestReport,
    forest_signatures,
    run_forest_differential,
)
from repro.verify.metamorphic import (
    METAMORPHIC_CHECKS,
    STREAM_METAMORPHIC_CHECKS,
    run_metamorphic,
    run_stream_metamorphic,
)
from repro.verify.oracle import (
    OracleBuilder,
    OracleSplit,
    best_categorical_split,
    best_linear_split,
    best_numeric_split,
    oracle_best_split,
)
from repro.verify.runner import run_verify
from repro.verify.stream import (
    StreamBatteryReport,
    check_streaming_tree,
    run_stream_battery,
    run_stream_differential,
)

__all__ = [
    "BUILDER_FACTORIES",
    "DifferentialReport",
    "FailureCase",
    "Finding",
    "ForestReport",
    "METAMORPHIC_CHECKS",
    "STREAM_METAMORPHIC_CHECKS",
    "StreamBatteryReport",
    "OracleBuilder",
    "OracleSplit",
    "best_categorical_split",
    "best_linear_split",
    "best_numeric_split",
    "check_streaming_tree",
    "check_tree_against_oracle",
    "default_checks",
    "forest_signatures",
    "load_case",
    "node_members",
    "oracle_best_split",
    "replay_case",
    "run_differential",
    "run_forest_differential",
    "run_fuzz",
    "run_metamorphic",
    "run_stream_battery",
    "run_stream_differential",
    "run_stream_metamorphic",
    "run_verify",
    "save_case",
    "shrink_case",
    "tree_signature",
]
