"""Benchmark: chunk-parallel level scans vs the serial path.

Standalone script (not a pytest benchmark): builds each CMP-family
classifier serially, with ``--workers`` thread workers, and with
``--workers`` forked process workers; verifies every tree (including a
kernel-disabled rebuild) is bit-identical; times the native
subset-split gini sweep against its numpy loop; and emits
``BENCH_scan.json``.  CI runs
it as a perf gate and uploads the JSON artifact::

    PYTHONPATH=src python benchmarks/bench_scan_parallel.py \
        --records 80000 --workers 4 --repeats 3 \
        --assert-speedup 1.5 --out BENCH_scan.json

Each configuration is built ``--repeats`` times and reported as the
**min and median** wall-clock across repeats (a single-repeat number is
dominated by noise; speedups compare mins).  The thread rows mostly show
the GIL ceiling; the process rows are the ones expected to scale on
multi-core machines, which is what ``--assert-speedup`` gates in CI.
On single-core machines wall speedups are meaningless — leave
``--assert-speedup`` unset there; bit-identity and the kernel-vs-numpy
sweep comparison are asserted regardless.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

import numpy as np

from repro.config import BuilderConfig
from repro.core import native_scan
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.histogram import CategoryHistogram, best_subset_splits
from repro.core.serialize import tree_to_json
from repro.data.synthetic import generate_agrawal

BUILDERS = (CMPSBuilder, CMPBBuilder, CMPBuilder)


def _measure(builder_cls, dataset, config: BuilderConfig, repeats: int) -> dict[str, object]:
    """Build ``repeats`` times; aggregate wall-clock as min/median."""
    walls: list[float] = []
    tree_json = None
    stats = None
    for _ in range(max(1, repeats)):
        result = builder_cls(config).build(dataset)
        walls.append(result.stats.wall_seconds)
        current = tree_to_json(result.tree)
        if tree_json is None:
            tree_json = current
        elif tree_json != current:
            raise AssertionError(
                f"{builder_cls.name}: repeats produced different trees"
            )
        stats = result.stats
    return {
        "tree_json": tree_json,
        "wall_seconds_min": round(min(walls), 4),
        "wall_seconds_median": round(statistics.median(walls), 4),
        "wall_seconds_all": [round(w, 4) for w in walls],
        "simulated_ms": round(stats.simulated_ms, 3),
        "scans": stats.io.scans,
        "pages_read": stats.io.pages_read,
        "scan_workers": stats.scan_workers,
        "scan_backend": stats.scan_backend,
        "parallel_batches": stats.parallel_batches,
        "native_kernel_calls": stats.native_kernel_calls,
        "phase_seconds": {k: round(v, 4) for k, v in sorted(stats.phase_seconds.items())},
        "nodes": stats.nodes_created,
        "levels": stats.levels_built,
    }


def _time_calls(fn, repeats: int, calls: int) -> float:
    """Min-of-repeats wall seconds for ``calls`` invocations of ``fn``."""
    best = float("inf")
    for _ in range(max(1, repeats)):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        best = min(best, time.perf_counter() - start)
    return best


def sweep_microbenchmark(repeats: int) -> dict[str, object]:
    """Native subset-split sweep vs numpy on one wide level's tables.

    :func:`best_subset_splits` answers every categorical histogram of a
    level in one ``cmp_subset_splits`` call; under ``force_numpy`` it
    loops over :meth:`CategoryHistogram.best_subset_split`.
    """
    rng = np.random.default_rng(0)
    items = []
    for j in range(400):
        hist = CategoryHistogram(20, 2)
        hist.counts[:] = rng.integers(0, 50, size=hist.counts.shape)
        items.append((j, hist))
    calls = 5
    native_available = native_scan.available()
    native_s = (
        _time_calls(lambda: best_subset_splits(items), repeats, calls)
        if native_available
        else None
    )
    with native_scan.force_numpy():
        numpy_s = _time_calls(lambda: best_subset_splits(items), repeats, calls)
        reference = best_subset_splits(items)
    entry: dict[str, object] = {
        "tables": len(items),
        "categories": 20,
        "classes": 2,
        "calls": calls,
        "native_available": native_available,
        "numpy_seconds": round(numpy_s, 5),
    }
    if native_s is not None:
        entry["native_seconds"] = round(native_s, 5)
        entry["native_speedup"] = round(numpy_s / max(native_s, 1e-9), 3)
        native = best_subset_splits(items)
        entry["bit_identical"] = all(
            a.gini == b.gini and np.array_equal(a.mask, b.mask)
            for a, b in zip(reference, native)
        )
    return entry


def run(records: int, workers: int, function: str, seed: int, repeats: int) -> dict[str, object]:
    dataset = generate_agrawal(function, records, seed=seed)
    config = BuilderConfig(max_depth=8)
    report: dict[str, object] = {
        "benchmark": "scan_parallel",
        "function": function,
        "records": records,
        "workers": workers,
        "seed": seed,
        "repeats": repeats,
        "python": platform.python_version(),
        "cpus": os.cpu_count(),
        "native_kernels": native_scan.available(),
        "builders": {},
    }
    ok = True
    for builder_cls in BUILDERS:
        serial = _measure(builder_cls, dataset, config, repeats)
        threaded = _measure(
            builder_cls, dataset, config.with_(scan_workers=workers), repeats
        )
        process = _measure(
            builder_cls,
            dataset,
            config.with_(scan_workers=workers, scan_backend="process"),
            repeats,
        )
        # One kernel-disabled build covers the {numpy} x {serial} corner;
        # the suite's bit-identity matrix covers the rest exhaustively.
        with native_scan.force_numpy():
            no_native = _measure(builder_cls, dataset, config, 1)
        reference = serial.pop("tree_json")
        identical = all(
            other.pop("tree_json") == reference
            for other in (threaded, process, no_native)
        )
        ok &= identical
        entry = {
            "bit_identical": identical,
            "serial": serial,
            "thread": threaded,
            "process": process,
            "no_native_serial": no_native,
            "thread_wall_speedup": round(
                serial["wall_seconds_min"] / max(threaded["wall_seconds_min"], 1e-9), 3
            ),
            "process_wall_speedup": round(
                serial["wall_seconds_min"] / max(process["wall_seconds_min"], 1e-9), 3
            ),
            "simulated_speedup": round(
                serial["simulated_ms"] / max(threaded["simulated_ms"], 1e-9), 3
            ),
        }
        report["builders"][builder_cls.name] = entry
        print(
            f"{builder_cls.name:6s} identical={identical} "
            f"serial={serial['wall_seconds_min']:.3f}s "
            f"thread={threaded['wall_seconds_min']:.3f}s "
            f"(x{entry['thread_wall_speedup']:.2f}) "
            f"process={process['wall_seconds_min']:.3f}s "
            f"(x{entry['process_wall_speedup']:.2f})"
        )
    report["all_bit_identical"] = ok
    report["sweep_microbenchmark"] = sweep = sweep_microbenchmark(repeats)
    if "native_speedup" in sweep:
        print(
            f"subset-split sweep: numpy={sweep['numpy_seconds']:.4f}s "
            f"native={sweep['native_seconds']:.4f}s "
            f"(x{sweep['native_speedup']:.2f})"
        )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=20_000)
    parser.add_argument("--workers", type=int, default=4)
    parser.add_argument("--function", default="F2")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--repeats",
        type=int,
        default=3,
        help="builds per configuration; wall-clock reported as min/median",
    )
    parser.add_argument(
        "--assert-speedup",
        type=float,
        default=None,
        metavar="X",
        help="fail unless every builder's process-backend min-wall speedup "
        "over serial is at least X (only meaningful on multi-core machines)",
    )
    parser.add_argument("--out", default="BENCH_scan.json", metavar="PATH")
    args = parser.parse_args(argv)

    report = run(args.records, args.workers, args.function, args.seed, args.repeats)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    failed = False
    if not report["all_bit_identical"]:
        print("ERROR: parallel/native build diverged from serial", file=sys.stderr)
        failed = True
    sweep = report["sweep_microbenchmark"]
    if sweep.get("native_available"):
        if not sweep.get("bit_identical"):
            print("ERROR: native subset-split sweep diverged from numpy", file=sys.stderr)
            failed = True
        if sweep.get("native_speedup", 0.0) <= 1.0:
            print(
                f"ERROR: native subset-split sweep not faster than numpy "
                f"(x{sweep.get('native_speedup')})",
                file=sys.stderr,
            )
            failed = True
    if args.assert_speedup is not None:
        for name, entry in report["builders"].items():
            if entry["process_wall_speedup"] < args.assert_speedup:
                print(
                    f"ERROR: {name} process speedup "
                    f"x{entry['process_wall_speedup']} below "
                    f"x{args.assert_speedup}",
                    file=sys.stderr,
                )
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
