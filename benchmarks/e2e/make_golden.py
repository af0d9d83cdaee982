"""Regenerate golden.json: what each workload's trees must reproduce.

For every training workload at seeds 0 and 1, and for the tree that
``serve-open`` serves (trained on its reference seed), this records the
sha256 of ``tree_signature`` of the built tree, its holdout accuracy,
its scan count and its simulated cost.  Seed 0 is the reference data
every run builds; seed 1 is held out: claims made with the benchmark
must pass it too.  Run from the repository root, only when a change is
meant to alter the trees::

    python3 benchmarks/e2e/make_golden.py
"""

from __future__ import annotations

import json
import os
from pathlib import Path

HERE = Path(__file__).resolve().parent
os.environ.setdefault("CMP_NATIVE_CACHE", str(HERE.parents[1] / ".bench_build" / "e2e" / "native"))

import workload  # noqa: E402  (after the cache location is set)

SEEDS = (workload.REFERENCE_SEED, 1)


def outcome(builder_cls, config, data, holdout) -> dict[str, object]:
    run = workload.Run()
    result, _ = workload.build_once(builder_cls, config, data, run)
    if result is None:
        raise SystemExit(run.problems[0])
    return {"records": data.n_records, **workload.outcome_of(result, holdout)}


def main() -> None:
    workload.load_kernels()
    golden: dict[str, dict[str, dict[str, object]]] = {}
    for name in workload.TRAINING:
        for seed in SEEDS:
            data, holdout = workload.training_data(name, seed, 1.0)
            golden.setdefault(name, {})[str(seed)] = outcome(
                *workload.builder_of(name), data, holdout
            )
            print(name, seed, golden[name][str(seed)], flush=True)
    records, result, _, holdout, *_ = workload.serve_setup(workload.REFERENCE_SEED, 1.0)
    golden["serve-open"] = {
        str(workload.REFERENCE_SEED): {
            "records": records, **workload.outcome_of(result, holdout)
        }
    }
    print("serve-open", golden["serve-open"], flush=True)
    (HERE / "golden.json").write_text(json.dumps(golden, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    main()
