"""Command-line entry point: regenerate any table or figure.

Usage (installed as ``cmp-repro`` or via ``python -m repro``)::

    cmp-repro table1
    cmp-repro fig14 --sizes 20000 50000 100000
    cmp-repro fig16 --function F2
    cmp-repro fig18
    cmp-repro fig19
    cmp-repro prediction
    cmp-repro demo --function Ff --records 50000
    cmp-repro demo --records 20000 --trace trace.jsonl --metrics out.prom
    cmp-repro inspect-trace trace.jsonl --format json
    cmp-repro serve-bench --access-log access.jsonl --slo-availability 0.999
    cmp-repro bench-history --append BENCH_*.json --check
    cmp-repro verify --seeds 25
    cmp-repro verify --fuzz --seeds 10 --corpus-dir tests/data/corpus
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from repro.config import BuilderConfig
from repro.core.cmp_full import CMPBuilder
from repro.data.synthetic import generate_agrawal
from repro.eval import experiments
from repro.eval.harness import format_table, run_builder
from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    Tracer,
    format_summary,
    load_trace_jsonl,
    record_admission,
    record_breaker,
    record_build_stats,
    record_serving_stats,
    render_tree,
    summarize_trace,
    write_metrics,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--intervals", type=int, default=100)
    parser.add_argument("--max-depth", type=int, default=12)
    parser.add_argument(
        "--workers",
        type=int,
        default=1,
        metavar="N",
        help="chunk-routing workers per scan (trees are bit-identical "
        "for any worker count; default 1 = serial)",
    )
    parser.add_argument(
        "--scan-backend",
        choices=("thread", "process"),
        default="thread",
        help="how scan workers execute: GIL-sharing threads, or forked "
        "processes that scale past the GIL (bit-identical trees either "
        "way; 'process' falls back to threads where fork is unavailable)",
    )
    _add_obs(parser)


def _add_obs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace",
        default=None,
        metavar="FILE",
        help="record spans (builds, levels, scans, retries, serve batches) "
        "and write them to FILE as JSONL; inspect with `cmp-repro "
        "inspect-trace FILE`",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="FILE",
        help="export counters and latency histograms to FILE — Prometheus "
        "text exposition, or a JSON snapshot when FILE ends in .json",
    )


def _config(args: argparse.Namespace) -> BuilderConfig:
    return experiments.default_config(
        n_intervals=args.intervals,
        max_depth=args.max_depth,
        scan_workers=args.workers,
        scan_backend=args.scan_backend,
    )


def _obs_objects(args: argparse.Namespace):
    """(tracer, registry) for this invocation — real only when asked for."""
    tracer = Tracer() if getattr(args, "trace", None) else NULL_TRACER
    registry = MetricsRegistry() if getattr(args, "metrics", None) else None
    return tracer, registry


def _write_obs(args: argparse.Namespace, tracer, registry) -> None:
    """Flush --trace / --metrics outputs (status lines go to stderr)."""
    if getattr(args, "trace", None):
        n = tracer.write_jsonl(args.trace)
        print(f"wrote {n} spans to {args.trace}", file=sys.stderr)
    if registry is not None and getattr(args, "metrics", None):
        write_metrics(registry, args.metrics)
        print(f"wrote metrics to {args.metrics}", file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="cmp-repro",
        description="Reproduce tables and figures of the CMP paper (ICDE 2000).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="Table 1: exact vs CMP root splits")
    p.add_argument("--records", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)

    for name, help_text in [
        ("fig14", "Figure 14: CMP family scalability on Function 2"),
        ("fig15", "Figure 15: CMP family scalability on Function 7"),
        ("fig16", "Figure 16: comparison on Function 2"),
        ("fig17", "Figure 17: comparison on Function 7"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--sizes", type=int, nargs="+", default=[20_000, 50_000, 100_000])
        p.add_argument("--function", default=None)
        _add_common(p)

    p = sub.add_parser("fig18", help="Figure 18: comparison on Function f")
    p.add_argument("--sizes", type=int, nargs="+", default=[20_000, 50_000])
    _add_common(p)

    p = sub.add_parser("fig19", help="Figure 19: memory usage comparison")
    p.add_argument("--sizes", type=int, nargs="+", default=[20_000, 50_000, 100_000])
    p.add_argument("--function", default="F2")
    _add_common(p)

    p = sub.add_parser("prediction", help="predictSplit accuracy on Function 2")
    p.add_argument("--records", type=int, default=100_000)
    _add_common(p)

    p = sub.add_parser(
        "serve-bench",
        help="Benchmark the compiled serving engine against the object walker",
    )
    p.add_argument("--records", type=int, default=200_000)
    p.add_argument("--depth", type=int, default=10)
    p.add_argument(
        "--batch",
        type=int,
        default=50_000,
        metavar="N",
        help="rows per serving request (the record stream is split into "
        "ceil(records/batch) requests)",
    )
    p.add_argument(
        "--serve-workers",
        type=int,
        default=1,
        metavar="N",
        help="row-sharding threads inside the serving engine",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--max-queue-depth",
        type=int,
        default=None,
        metavar="N",
        help="admission bound on concurrent requests; excess load is "
        "shed with Overloaded instead of queueing (default: unbounded)",
    )
    p.add_argument(
        "--deadline-ms",
        type=float,
        default=None,
        metavar="MS",
        help="per-request latency budget; a request past it fails with "
        "DeadlineExceeded (default: none)",
    )
    p.add_argument(
        "--breaker-threshold",
        type=int,
        default=None,
        metavar="N",
        help="trip the per-model circuit breaker after N consecutive "
        "failures (default: no breaker)",
    )
    p.add_argument(
        "--fallback",
        default=None,
        metavar="FP",
        help="degraded answer while the breaker is open: a registered "
        "fingerprint, or 'prior' for the majority-class prior",
    )
    p.add_argument(
        "--access-log",
        default=None,
        metavar="FILE",
        help="write one structured JSONL record per serving request to "
        "FILE; per-outcome counts are cross-checked against the "
        "ServingStats counters (mismatch fails the run)",
    )
    p.add_argument(
        "--slo-availability",
        type=float,
        default=None,
        metavar="OBJ",
        help="evaluate an availability SLO with objective OBJ (e.g. "
        "0.999) over the run and report burn rates",
    )
    p.add_argument(
        "--slo-latency-ms",
        type=float,
        default=None,
        metavar="MS",
        help="evaluate a latency SLO (answers within MS milliseconds) "
        "over the run and report burn rates",
    )
    p.add_argument(
        "--slo-latency-objective",
        type=float,
        default=0.99,
        metavar="OBJ",
        help="good-fraction objective for --slo-latency-ms (default 0.99)",
    )
    _add_obs(p)

    p = sub.add_parser(
        "inspect-trace",
        help="Summarize a --trace JSONL file: slowest spans, per-phase "
        "rollup, and a scan-count cross-check against IOStats.scans",
    )
    p.add_argument("file", metavar="FILE", help="trace JSONL written by --trace")
    p.add_argument(
        "--top", type=int, default=10, metavar="N", help="slowest spans to show"
    )
    p.add_argument(
        "--render",
        action="store_true",
        help="also print the full indented span tree (text format only)",
    )
    p.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format; 'json' emits the full summary (phases, "
        "slowest spans, per-build cross-checks) for scripted consumers",
    )

    p = sub.add_parser(
        "bench-history",
        help="Fold BENCH_*.json artifacts into an append-only trajectory "
        "and gate the newest run against a rolling baseline",
    )
    p.add_argument(
        "--history",
        default="BENCH_history.json",
        metavar="FILE",
        help="trajectory file (created on first --append)",
    )
    p.add_argument(
        "--append",
        nargs="+",
        default=None,
        metavar="ARTIFACT",
        help="bench artifact(s) to fold in as one new run",
    )
    p.add_argument(
        "--check",
        action="store_true",
        help="exit nonzero if the newest run regressed any gated metric "
        "past --tolerance vs the rolling-median baseline",
    )
    p.add_argument(
        "--run-id",
        default=None,
        metavar="ID",
        help="identifier for the appended run (e.g. the commit SHA)",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.25,
        metavar="FRAC",
        help="relative movement in a metric's bad direction that counts "
        "as a regression (default 0.25 = 25%%)",
    )
    p.add_argument(
        "--min-runs",
        type=int,
        default=3,
        metavar="N",
        help="prior observations a metric needs before it is gated",
    )
    p.add_argument(
        "--window",
        type=int,
        default=5,
        metavar="N",
        help="prior runs the rolling median baseline is computed over",
    )
    p.add_argument(
        "--max-runs",
        type=int,
        default=200,
        metavar="N",
        help="newest runs retained in the history file",
    )

    p = sub.add_parser(
        "verify",
        help="Differential + metamorphic correctness harness: every builder "
        "against the exact split oracle on adversarial datasets",
    )
    p.add_argument(
        "--seeds",
        type=int,
        default=25,
        metavar="N",
        help="seeded datasets to check (profiles rotate across seeds)",
    )
    p.add_argument("--records", type=int, default=300, metavar="N")
    p.add_argument(
        "--profiles",
        nargs="+",
        default=None,
        metavar="NAME",
        help="adversarial profiles to draw from (default: all)",
    )
    p.add_argument(
        "--builders",
        nargs="+",
        default=None,
        metavar="NAME",
        help="builders to verify (default: CMP-S CMP-B CMP CLOUDS SLIQ)",
    )
    p.add_argument(
        "--checks",
        nargs="+",
        default=None,
        metavar="NAME",
        help="metamorphic checks to run (default: the full battery)",
    )
    p.add_argument(
        "--safety",
        type=float,
        default=2.0,
        help="multiplier on the footnote-1 estimator bound (grid drift margin)",
    )
    p.add_argument(
        "--forest-every",
        type=int,
        default=5,
        metavar="N",
        help="run the shared-scan forest differential on every Nth dataset "
        "(0 disables)",
    )
    p.add_argument(
        "--fuzz",
        action="store_true",
        help="fuzz instead of the fixed sweep: shrink any failing dataset "
        "and write it as a replayable JSON case under --corpus-dir",
    )
    p.add_argument("--corpus-dir", default="tests/data/corpus", metavar="DIR")
    p.add_argument("--intervals", type=int, default=16)
    p.add_argument("--max-depth", type=int, default=6)
    p.add_argument("--min-records", type=int, default=25)
    _add_obs(p)

    p = sub.add_parser("demo", help="Train CMP on a synthetic function, print the tree")
    p.add_argument("--function", default="Ff")
    p.add_argument("--records", type=int, default=50_000)
    p.add_argument(
        "--ensemble",
        choices=("bagged", "boosted"),
        default=None,
        help="train a shared-scan ensemble instead of a single tree: "
        "'bagged' bootstrap-sampled CMP-S members (soft voting), "
        "'boosted' histogram gradient boosting over the binned scan",
    )
    p.add_argument(
        "--n-trees",
        type=int,
        default=8,
        metavar="N",
        help="bagged member trees, or boosting iterations (--ensemble only)",
    )
    p.add_argument(
        "--learning-rate",
        type=float,
        default=0.1,
        metavar="LR",
        help="shrinkage for --ensemble boosted",
    )
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="PATH",
        help="write a checkpoint to PATH after every completed tree level",
    )
    p.add_argument(
        "--resume",
        action="store_true",
        help="resume an interrupted build from --checkpoint if one exists",
    )
    _add_common(p)

    p = sub.add_parser(
        "stream-demo",
        help="One-pass streaming training + sliding-window hot-swap refresh "
        "on a concept-drifting Agrawal stream",
    )
    p.add_argument(
        "--segments",
        nargs="+",
        default=["F2:8000", "F5:8000"],
        metavar="FN:N",
        help="drift segments as function:records pairs, in stream order",
    )
    p.add_argument("--chunk", type=int, default=500, metavar="N")
    p.add_argument("--window", type=int, default=4000, metavar="N")
    p.add_argument("--refresh-every", type=int, default=2000, metavar="N")
    p.add_argument("--eps", type=float, default=0.02)
    p.add_argument(
        "--memory-budget",
        type=int,
        default=0,
        metavar="BYTES",
        help="sketch memory budget for the one-pass trainer (0 = unbounded)",
    )
    p.add_argument(
        "--battery",
        type=int,
        default=0,
        metavar="SEEDS",
        help="also run the N-seed streaming differential battery "
        "(every sketch split vs the exact oracle)",
    )
    p.add_argument("--intervals", type=int, default=32)
    p.add_argument("--max-depth", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    _add_obs(p)

    args = parser.parse_args(argv)

    if args.command == "table1":
        rows = experiments.table1(seed=args.seed, agrawal_records=args.records)
        print(format_table(rows))
        return 0
    if args.command in ("fig14", "fig15"):
        function = args.function or ("F2" if args.command == "fig14" else "F7")
        tracer, registry = _obs_objects(args)
        records = experiments.scalability(
            function, args.sizes, _config(args), args.seed, tracer, registry
        )
        print(format_table(experiments.records_as_rows(records)))
        _write_obs(args, tracer, registry)
        return 0
    if args.command in ("fig16", "fig17"):
        function = args.function or ("F2" if args.command == "fig16" else "F7")
        tracer, registry = _obs_objects(args)
        records = experiments.comparison(
            function, args.sizes, _config(args), args.seed, tracer, registry
        )
        print(format_table(experiments.records_as_rows(records)))
        _write_obs(args, tracer, registry)
        return 0
    if args.command == "fig18":
        tracer, registry = _obs_objects(args)
        records = experiments.comparison_f(
            args.sizes, _config(args), args.seed, tracer, registry
        )
        print(format_table(experiments.records_as_rows(records)))
        _write_obs(args, tracer, registry)
        return 0
    if args.command == "fig19":
        tracer, registry = _obs_objects(args)
        records = experiments.memory_usage(
            args.function, args.sizes, _config(args), args.seed, tracer, registry
        )
        print(format_table(experiments.records_as_rows(records)))
        _write_obs(args, tracer, registry)
        return 0
    if args.command == "prediction":
        tracer, registry = _obs_objects(args)
        print(
            experiments.prediction_accuracy(
                args.records, _config(args), args.seed, tracer, registry
            )
        )
        _write_obs(args, tracer, registry)
        return 0
    if args.command == "serve-bench":
        import time

        from repro.eval.treegen import random_batch, random_tree
        from repro.obs import AccessLog, SLODefinition, SLOMonitor
        from repro.serve import BreakerPolicy, ModelRegistry, ServingEngine
        from repro.verify.walker import walk_predict

        tracer, metrics_registry = _obs_objects(args)
        tree = random_tree(depth=args.depth, seed=args.seed)
        registry = ModelRegistry()
        key = registry.register(tree)
        X = random_batch(tree.schema, args.records, seed=args.seed + 1)

        start = time.perf_counter()
        walked = walk_predict(tree, X)
        walk_s = time.perf_counter() - start

        breaker_policy = (
            BreakerPolicy(failure_threshold=args.breaker_threshold)
            if args.breaker_threshold is not None
            else None
        )
        deadline_s = (
            args.deadline_ms / 1000.0 if args.deadline_ms is not None else None
        )
        # The latency SLO is computed from access records, so any SLO
        # flag turns the (in-memory) access log on.
        access = (
            AccessLog(metrics=metrics_registry)
            if args.access_log
            or args.slo_availability is not None
            or args.slo_latency_ms is not None
            else None
        )
        avail_mon = (
            SLOMonitor(
                SLODefinition(
                    name="serve-availability", objective=args.slo_availability
                )
            )
            if args.slo_availability is not None
            else None
        )
        latency_mon = (
            SLOMonitor(
                SLODefinition(
                    name="serve-latency",
                    objective=args.slo_latency_objective,
                    kind="latency",
                    latency_threshold_s=args.slo_latency_ms / 1000.0,
                )
            )
            if args.slo_latency_ms is not None
            else None
        )
        if avail_mon is not None:
            avail_mon.observe(0, 0)
        if latency_mon is not None:
            latency_mon.observe(0, 0)
        with ServingEngine(
            registry,
            workers=args.serve_workers,
            tracer=tracer,
            access_log=access,
            max_queue_depth=args.max_queue_depth,
            breaker_policy=breaker_policy,
            fallback=args.fallback,
        ) as engine:
            parts = []
            for lo in range(0, args.records, args.batch):
                parts.append(
                    engine.predict(key, X[lo : lo + args.batch], deadline=deadline_s)
                )
            served = np.concatenate(parts) if parts else np.empty(0, dtype=np.int64)
        snap = registry.stats(key).snapshot()
        if metrics_registry is not None:
            record_serving_stats(metrics_registry, registry.stats(key), {"model": key})
            if engine.admission is not None:
                record_admission(metrics_registry, engine.admission, {"model": key})
            breaker = engine.breaker(key)
            if breaker is not None:
                record_breaker(metrics_registry, breaker, {"model": key})

        identical = bool(np.array_equal(served, walked))
        log_consistent = True
        if access is not None:
            counts = access.outcome_counts()
            # Every engine call must have produced exactly one record
            # whose outcome mirrors the aggregate counters.
            expected = {
                "ok": int(snap["batches"]),
                "shed": int(snap["shed"]),
                "deadline": int(snap["timeouts"]),
                "fallback": int(snap["fallbacks"]),
                "breaker": int(snap["breaker_rejections"]) - int(snap["fallbacks"]),
                "error": 0,
            }
            log_consistent = counts == expected
            if not log_consistent:
                print(
                    f"access-log cross-check: MISMATCH (log {counts} != "
                    f"stats {expected})",
                    file=sys.stderr,
                )
            if args.access_log:
                n = access.write_jsonl(args.access_log)
                print(
                    f"wrote {n} access records to {args.access_log} "
                    f"(outcomes: "
                    + " ".join(f"{k}={v}" for k, v in counts.items() if v)
                    + ")",
                    file=sys.stderr,
                )
        slo_reports = []
        if avail_mon is not None:
            avail_mon.observe_stats(snap)
            slo_reports.append(avail_mon.snapshot())
        if latency_mon is not None:
            lat_hist = MetricsRegistry().histogram(
                "latency", "request latency", {}
            )
            for rec in access.records():
                if rec.outcome in ("ok", "fallback"):
                    lat_hist.observe(rec.latency_s)
            latency_mon.observe_histogram(lat_hist)
            slo_reports.append(latency_mon.snapshot())
        rows = [
            {
                "model": key,
                "nodes": tree.n_nodes,
                "records": args.records,
                "batches": int(snap["batches"]),
                "mean_batch": round(snap["mean_batch"], 1),
                "mean_latency_ms": round(snap["mean_latency_ms"], 3),
                "p50_latency_ms": round(snap["p50_latency_ms"], 3),
                "p90_latency_ms": round(snap["p90_latency_ms"], 3),
                "p99_latency_ms": round(snap["p99_latency_ms"], 3),
                "records_per_s": round(snap["records_per_s"], 1),
                "shed": int(snap["shed"]),
                "timeouts": int(snap["timeouts"]),
                "walker_records_per_s": round(args.records / max(walk_s, 1e-9), 1),
                "speedup": round(
                    snap["records_per_s"] / max(args.records / max(walk_s, 1e-9), 1e-9),
                    2,
                ),
                "bit_identical": identical,
            }
        ]
        print(format_table(rows))
        for report in slo_reports:
            print(f"slo {report['slo']}: {json.dumps(report)}")
        _write_obs(args, tracer, metrics_registry)
        return 0 if identical and log_consistent else 1
    if args.command == "inspect-trace":
        try:
            spans = load_trace_jsonl(args.file)
        except (OSError, ValueError) as exc:
            print(f"cannot read trace: {exc}", file=sys.stderr)
            return 2
        summary = summarize_trace(spans, top=args.top)
        if args.format == "json":
            print(json.dumps(summary.to_dict(), indent=1))
        else:
            print(format_summary(summary))
            if args.render:
                print()
                print(render_tree(spans))
        return 0 if summary.consistent else 1
    if args.command == "bench-history":
        from repro.obs import (
            append_run,
            check_regressions,
            load_history,
            save_history,
            summarize_history,
        )

        try:
            history = load_history(args.history)
        except (OSError, ValueError) as exc:
            print(f"cannot read history: {exc}", file=sys.stderr)
            return 2
        if args.append:
            try:
                entry = append_run(
                    history,
                    args.append,
                    run_id=args.run_id,
                    max_runs=args.max_runs,
                )
            except (OSError, ValueError) as exc:
                print(f"cannot append artifacts: {exc}", file=sys.stderr)
                return 2
            save_history(args.history, history)
            n_metrics = sum(
                len(b["metrics"]) for b in entry["benchmarks"].values()
            )
            print(
                f"appended {entry['run_id']}: "
                f"{len(entry['benchmarks'])} benchmark(s), "
                f"{n_metrics} metric(s) -> {args.history}"
            )
        if args.check:
            regressions = check_regressions(
                history,
                tolerance=args.tolerance,
                min_runs=args.min_runs,
                window=args.window,
            )
            for reg in regressions:
                print(f"REGRESSION: {reg.describe()}")
            if regressions:
                return 1
            print(
                f"no regressions ({len(history['runs'])} run(s), "
                f"tolerance {args.tolerance:.0%})"
            )
        if not args.append and not args.check:
            print(json.dumps(summarize_history(history), indent=1))
        return 0
    if args.command == "verify":
        import os

        from repro.eval.treegen import ADVERSARIAL_PROFILES
        from repro.verify import run_fuzz, run_verify, save_case
        from repro.verify.runner import DEFAULT_BUILDERS

        config = BuilderConfig(
            n_intervals=args.intervals,
            max_depth=args.max_depth,
            min_records=args.min_records,
            reservoir_capacity=5000,
        )
        profiles = tuple(args.profiles or ADVERSARIAL_PROFILES)
        unknown = [p_ for p_ in profiles if p_ not in ADVERSARIAL_PROFILES]
        if unknown:
            parser.error(
                f"unknown profile(s) {unknown}; "
                f"choose from {sorted(ADVERSARIAL_PROFILES)}"
            )
        builders = tuple(args.builders or DEFAULT_BUILDERS)
        tracer, registry = _obs_objects(args)

        def log(line: str) -> None:
            print(line, file=sys.stderr)

        if args.fuzz:
            cases, runs = run_fuzz(
                config,
                profiles=profiles,
                seeds=range(args.seeds),
                n=args.records,
                builders=builders,
                safety=args.safety,
                log=log,
            )
            for case in cases:
                os.makedirs(args.corpus_dir, exist_ok=True)
                path = os.path.join(args.corpus_dir, f"{case.name}.json")
                save_case(case, path)
                print(f"wrote {path}")
            print(
                f"fuzz: {runs} dataset(s), {len(cases)} failure(s)"
                + (f" shrunk into {args.corpus_dir}" if cases else "")
            )
            _write_obs(args, tracer, registry)
            return 0 if not cases else 1

        summary = run_verify(
            config,
            seeds=args.seeds,
            profiles=profiles,
            builders=builders,
            n=args.records,
            metamorphic_checks=tuple(args.checks) if args.checks else None,
            safety=args.safety,
            forest_every=args.forest_every,
            tracer=tracer,
            registry=registry,
            log=log,
        )
        print(format_table(summary.builder_rows()))
        errors = [f for f in summary.findings if f.severity == "error"]
        warnings = [f for f in summary.findings if f.severity != "error"]
        for f in errors + warnings:
            print(f)
        print(
            f"verify: {summary.datasets_run} dataset(s), "
            f"{len(errors)} error(s), {len(warnings)} warning(s)"
        )
        _write_obs(args, tracer, registry)
        return 0 if summary.ok else 1
    if args.command == "stream-demo":
        from repro.data.synthetic import drift_boundaries, generate_drift
        from repro.serve.engine import ModelRegistry, ServingEngine
        from repro.stream import SlidingWindowRefresher, StreamingTrainer

        try:
            segments = tuple(
                (part.split(":")[0], int(part.split(":")[1]))
                for part in args.segments
            )
        except (IndexError, ValueError):
            parser.error("--segments entries must look like F2:8000")
        config = BuilderConfig(
            n_intervals=args.intervals,
            max_depth=args.max_depth,
            min_records=20,
            seed=args.seed,
        )
        tracer, registry = _obs_objects(args)
        stream = generate_drift(segments, seed=args.seed)
        bounds = drift_boundaries(segments)

        # Static baseline: one-pass tree trained on the first window only.
        static_trainer = StreamingTrainer(
            stream.schema,
            config,
            eps=args.eps,
            memory_budget_bytes=args.memory_budget,
            metrics=registry,
            tracer=tracer,
        )
        first = min(args.window, stream.n_records)
        static = static_trainer.fit_stream(
            iter([(stream.X[:first], stream.y[:first])])
        )

        # Refreshed: sliding window, hot-swapped into a live endpoint.
        reg = ModelRegistry()
        engine = ServingEngine(reg, tracer=tracer)
        refresher = SlidingWindowRefresher(
            reg,
            "stream-demo",
            stream.schema,
            window_records=args.window,
            refresh_every=args.refresh_every,
            config=config,
            eps=args.eps,
            metrics=registry,
            tracer=tracer,
        )
        # Prequential replay: score each chunk before absorbing it.
        static_hits = np.zeros(len(bounds))
        refresh_hits = np.zeros(len(bounds))
        seen = np.zeros(len(bounds))
        for start in range(0, stream.n_records, args.chunk):
            stop = min(start + args.chunk, stream.n_records)
            Xc, yc = stream.X[start:stop], stream.y[start:stop]
            seg = next(i for i, b in enumerate(bounds) if start < b)
            if start >= first:
                static_hits[seg] += float(
                    np.sum(static.tree.predict(Xc) == yc)
                )
                if refresher.history:
                    refresh_hits[seg] += float(
                        np.sum(engine.predict("stream-demo", Xc) == yc)
                    )
                seen[seg] += len(yc)
            refresher.observe(Xc, yc)
        rows = []
        for i, (function, _) in enumerate(segments):
            rows.append(
                {
                    "segment": f"{i}:{function}",
                    "records": int(seen[i]),
                    "static_acc": round(static_hits[i] / max(seen[i], 1), 4),
                    "refresh_acc": round(refresh_hits[i] / max(seen[i], 1), 4),
                }
            )
        print(format_table(rows))
        print(
            f"refreshes: {len(refresher.history)}  "
            f"endpoint version: {reg.endpoint_version('stream-demo')}  "
            f"static sketch peak: {static.sketch_bytes_peak} bytes"
        )
        exit_code = 0
        if args.battery:
            from repro.verify.stream import run_stream_battery

            report = run_stream_battery(
                n_seeds=args.battery, config=config, eps=args.eps
            )
            print(format_table(report.rows))
            for finding in report.findings:
                print(finding, file=sys.stderr)
            print(
                f"battery: {len(report.rows)} runs, {report.n_splits} splits, "
                f"{'OK' if report.ok else 'FAILED'}"
            )
            exit_code = 0 if report.ok else 1
        _write_obs(args, tracer, registry)
        return exit_code
    if args.command == "demo":
        if args.resume and not args.checkpoint:
            parser.error("--resume requires --checkpoint")
        config = _config(args)
        if args.ensemble and args.checkpoint:
            parser.error("--ensemble does not support --checkpoint")
        if args.checkpoint:
            config = config.with_(
                checkpoint_path=args.checkpoint, resume=args.resume
            )
        tracer, registry = _obs_objects(args)
        dataset = generate_agrawal(args.function, args.records, seed=args.seed)
        if args.ensemble:
            from repro.ensemble import (
                BaggedForestBuilder,
                HistGradientBoostingBuilder,
            )

            if args.ensemble == "bagged":
                builder = BaggedForestBuilder(
                    config, n_trees=args.n_trees, tracer=tracer
                )
            else:
                builder = HistGradientBoostingBuilder(
                    config.with_(prune="none"),
                    n_iterations=args.n_trees,
                    learning_rate=args.learning_rate,
                    tracer=tracer,
                )
            result = builder.build(dataset)
            forest = result.forest
            accuracy = float(np.mean(forest.predict(dataset.X) == dataset.y))
            if registry is not None:
                record_build_stats(
                    registry,
                    result.stats,
                    {"builder": builder.name, "records": str(args.records)},
                )
            print(
                format_table(
                    [
                        {
                            "builder": builder.name,
                            "members": forest.n_trees,
                            "records": args.records,
                            "accuracy": round(accuracy, 4),
                            "scans": result.stats.io.scans,
                            "shared_level_scans": result.stats.shared_level_scans,
                            "wall_seconds": round(result.stats.wall_seconds, 3),
                            "fingerprint": forest.compiled().fingerprint[:16],
                        }
                    ]
                )
            )
            _write_obs(args, tracer, registry)
            return 0
        record, result = run_builder(CMPBuilder(config, tracer=tracer), dataset)
        if registry is not None:
            record_build_stats(
                registry,
                result.stats,
                {"builder": record.builder, "records": str(args.records)},
            )
        print(format_table([record.as_dict()]))
        print()
        print(result.tree.render())
        _write_obs(args, tracer, registry)
        return 0
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":
    sys.exit(main())
