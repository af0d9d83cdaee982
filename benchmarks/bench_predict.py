"""Benchmark: compiled batch inference vs the object walker.

Standalone script (not a pytest benchmark): builds a randomized tree
mixing all three split kinds, verifies the compiled engine predicts
bit-identically to the object walker, measures batch throughput for
``predict`` and ``predict_proba`` on both paths (plus the pure-numpy
compiled fallback), and emits ``BENCH_predict.json``.  CI runs it as a
smoke step and uploads the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_predict.py \
        --records 1000000 --depth 10 --out BENCH_predict.json

Interpreting the numbers: the object walker is already set-vectorized
(one numpy comparison per tree node over the records reaching it), so
the headline speedup is the native C routing kernel's — row-at-a-time
descent with the record's row in cache.  The numpy compiled path
(``CMP_NO_NATIVE=1``, also reported here as ``numpy_route``) wins by a
smaller factor: it gathers single columns instead of the walker's
full-row copies.  Bit-identity against the walker is asserted for both.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path

import numpy as np

from repro.core.native import native_available
from repro.eval.treegen import random_batch, random_tree
from repro.verify.walker import walk_predict, walk_predict_proba


def _best(fn, repeats: int) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def run(records: int, depth: int, seed: int, repeats: int) -> dict[str, object]:
    tree = random_tree(depth=depth, seed=seed)
    X = random_batch(tree.schema, records, seed=seed + 1)
    compiled = tree.compiled()
    compiled.predict(X[:1000])  # warm: native build, caches

    walked = walk_predict(tree, X)
    predicted = compiled.predict(X)
    identical = bool(np.array_equal(walked, predicted)) and bool(
        np.array_equal(walk_predict_proba(tree, X), compiled.predict_proba(X))
    )

    walk_s = _best(lambda: walk_predict(tree, X), repeats)
    compiled_s = _best(lambda: compiled.predict(X), repeats)
    numpy_s = _best(lambda: compiled._route_numpy(np.ascontiguousarray(X)), repeats)
    walk_proba_s = _best(lambda: walk_predict_proba(tree, X), repeats)
    proba_s = _best(lambda: compiled.predict_proba(X), repeats)

    report: dict[str, object] = {
        "benchmark": "predict",
        "records": records,
        "depth": depth,
        "nodes": tree.n_nodes,
        "seed": seed,
        "python": platform.python_version(),
        "native_kernel": native_available(),
        "bit_identical": identical,
        "walker": {
            "predict_s": round(walk_s, 4),
            "predict_proba_s": round(walk_proba_s, 4),
            "records_per_s": round(records / walk_s, 1),
        },
        "compiled": {
            "predict_s": round(compiled_s, 4),
            "predict_proba_s": round(proba_s, 4),
            "records_per_s": round(records / compiled_s, 1),
        },
        "numpy_route": {
            "route_s": round(numpy_s, 4),
            "records_per_s": round(records / numpy_s, 1),
        },
        "speedup": round(walk_s / max(compiled_s, 1e-9), 2),
        "speedup_numpy_route": round(walk_s / max(numpy_s, 1e-9), 2),
        "speedup_proba": round(walk_proba_s / max(proba_s, 1e-9), 2),
    }
    print(
        f"depth={depth} nodes={tree.n_nodes} records={records} "
        f"native={report['native_kernel']} identical={identical}"
    )
    print(
        f"predict: walker={walk_s:.3f}s compiled={compiled_s:.4f}s "
        f"(x{report['speedup']:.1f}; numpy route x{report['speedup_numpy_route']:.1f})"
    )
    print(
        f"predict_proba: walker={walk_proba_s:.3f}s compiled={proba_s:.4f}s "
        f"(x{report['speedup_proba']:.1f})"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=1_000_000)
    parser.add_argument("--depth", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--out", default="BENCH_predict.json", metavar="PATH")
    args = parser.parse_args(argv)

    report = run(args.records, args.depth, args.seed, args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not report["bit_identical"]:
        print("ERROR: compiled predictions diverged from the walker", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
