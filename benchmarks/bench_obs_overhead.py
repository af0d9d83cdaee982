"""Benchmark: tracing overhead on the build path.

Standalone script (not a pytest benchmark): builds each level-driver
classifier (CMP-S, CMP-B, CMP and CLOUDS) with tracing disabled
(``NULL_TRACER``) and enabled (a real
:class:`~repro.obs.trace.Tracer` plus a populated
:class:`~repro.obs.metrics.MetricsRegistry`), verifies the trees are
bit-identical, and emits ``BENCH_obs.json`` with best-of-``--repeats``
wall-clock timings and the measured overhead percentage.  CI runs it as
a smoke step and uploads the JSON plus a sample trace artifact::

    PYTHONPATH=src python benchmarks/bench_obs_overhead.py \
        --records 20000 --repeats 3 --out BENCH_obs.json \
        --trace-out trace_sample.jsonl

The acceptance bar is ``--max-overhead`` percent (default 5.0) on the
median of per-repeat paired on/off wall-clock ratios (best-of-repeats
wall clocks are still reported): span recording is a handful of dict appends
per level/scan, so it must stay in the noise next to the NumPy-heavy
split search.  Bit-identity is the hard guarantee: tracing observes the
build, it never steers it.

Beyond the serial sweep over every builder, CMP-S is also measured with
``--workers`` parallel scan workers on each scan backend (``thread``
always, ``process`` where fork is available) — the process backend
additionally exercises worker-span shipping and grafting, so its
overhead number covers the cross-process continuity machinery too.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
from pathlib import Path
from statistics import median

from repro.baselines.clouds import CloudsBuilder
from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.serialize import tree_to_json
from repro.data.synthetic import generate_agrawal
from repro.core.parallel import process_backend_available
from repro.obs import MetricsRegistry, Tracer, record_build_stats

BUILDERS = (CMPSBuilder, CMPBBuilder, CMPBuilder, CloudsBuilder)


def _measure(builder_cls, dataset, config, repeats, max_overhead_pct):
    """One off/on comparison; returns (entry dict, tracer, ok)."""
    off_s, off_result, on_s, on_result, tracer, ratios = _interleaved_best(
        builder_cls, dataset, config, repeats
    )
    identical = tree_to_json(off_result.tree) == tree_to_json(on_result.tree)
    overhead_pct = (median(ratios) - 1.0) * 100.0
    within = overhead_pct <= max_overhead_pct
    entry = {
        "bit_identical": identical,
        "off_wall_seconds": round(off_s, 4),
        "on_wall_seconds": round(on_s, 4),
        "overhead_pct": round(overhead_pct, 2),
        "within_budget": within,
        "spans": len(tracer.spans()),
        "scans": on_result.stats.io.scans,
    }
    return entry, on_result, tracer, identical and within


def _interleaved_best(builder_cls, dataset, config, repeats):
    """Wall-clock for tracing off and on, measured in alternation.

    Alternating off/on builds inside one loop keeps both measurements
    under the same cache/thermal conditions, so machine drift between
    two separate timing loops does not masquerade as tracing overhead.
    Returns ``(off_s, off_result, on_s, on_result, on_tracer, ratios)``
    where ``ratios`` holds one paired on/off wall-clock ratio per
    repeat — each pair ran back-to-back (with the order flipped every
    other repeat, so a machine that slows mid-pair biases half the
    pairs each way instead of all of them against tracing), and the
    median of the pairs (taken by the caller) shrugs off the occasional
    repeat that caught a scheduler hiccup.
    """
    off_s = on_s = float("inf")
    off_result = on_result = on_tracer = None
    ratios = []

    def build_off():
        nonlocal off_s, off_result
        result = builder_cls(config).build(dataset)
        if result.stats.wall_seconds < off_s:
            off_s, off_result = result.stats.wall_seconds, result
        return result.stats.wall_seconds

    def build_on():
        nonlocal on_s, on_result, on_tracer
        tracer = Tracer()
        result = builder_cls(config, tracer=tracer).build(dataset)
        if result.stats.wall_seconds < on_s:
            on_s, on_result, on_tracer = result.stats.wall_seconds, result, tracer
        return result.stats.wall_seconds

    for i in range(repeats):
        if i % 2 == 0:
            pair_off, pair_on = build_off(), build_on()
        else:
            pair_on, pair_off = build_on(), build_off()
        ratios.append(pair_on / max(pair_off, 1e-9))
    return off_s, off_result, on_s, on_result, on_tracer, ratios


def run(
    records: int,
    repeats: int,
    function: str,
    seed: int,
    max_overhead_pct: float,
    trace_out: str | None,
    workers: int,
) -> dict[str, object]:
    dataset = generate_agrawal(function, records, seed=seed)
    config = BuilderConfig(max_depth=8)
    registry = MetricsRegistry()
    report: dict[str, object] = {
        "benchmark": "obs_overhead",
        "function": function,
        "records": records,
        "repeats": repeats,
        "seed": seed,
        "workers": workers,
        "max_overhead_pct": max_overhead_pct,
        "python": platform.python_version(),
        "builders": {},
        "backends": {},
    }
    ok = True
    for builder_cls in BUILDERS:
        entry, on_result, tracer, entry_ok = _measure(
            builder_cls, dataset, config, repeats, max_overhead_pct
        )
        ok &= entry_ok
        record_build_stats(
            registry, on_result.stats, {"builder": builder_cls.name}
        )
        report["builders"][builder_cls.name] = entry
        print(
            f"{builder_cls.name:6s} identical={entry['bit_identical']} "
            f"off={entry['off_wall_seconds']:.3f}s "
            f"on={entry['on_wall_seconds']:.3f}s "
            f"overhead={entry['overhead_pct']:+.2f}% "
            f"({entry['spans']} spans)"
        )
        if trace_out and builder_cls is CMPBuilder:
            n = tracer.write_jsonl(trace_out)
            print(f"wrote {n} spans to {trace_out}")
    backends = ["thread"]
    if process_backend_available():
        backends.append("process")
    for backend in backends:
        cfg = config.with_(scan_workers=workers, scan_backend=backend)
        entry, _, _, entry_ok = _measure(
            CMPSBuilder, dataset, cfg, repeats, max_overhead_pct
        )
        ok &= entry_ok
        report["backends"][backend] = entry
        print(
            f"CMP-S/{backend:7s} (workers={workers}) "
            f"identical={entry['bit_identical']} "
            f"off={entry['off_wall_seconds']:.3f}s "
            f"on={entry['on_wall_seconds']:.3f}s "
            f"overhead={entry['overhead_pct']:+.2f}% "
            f"({entry['spans']} spans)"
        )
    report["all_ok"] = ok
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--records", type=int, default=20_000)
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--function", default="F2")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--workers",
        type=int,
        default=4,
        metavar="N",
        help="scan workers for the per-backend CMP-S measurements",
    )
    parser.add_argument(
        "--max-overhead",
        type=float,
        default=5.0,
        metavar="PCT",
        help="fail if tracing costs more than this percent of wall clock",
    )
    parser.add_argument("--out", default="BENCH_obs.json", metavar="PATH")
    parser.add_argument(
        "--trace-out",
        default=None,
        metavar="PATH",
        help="also write the full CMP build trace here as JSONL",
    )
    args = parser.parse_args(argv)

    report = run(
        args.records,
        args.repeats,
        args.function,
        args.seed,
        args.max_overhead,
        args.trace_out,
        args.workers,
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not report["all_ok"]:
        print(
            "ERROR: tracing changed the tree or exceeded the overhead budget",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
