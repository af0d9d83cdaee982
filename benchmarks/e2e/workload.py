"""One workload of the end-to-end benchmark, run in a process of its own.

``run.py`` starts this script once per run and reads the JSON object it
prints as its last line.  Without ``--trace-out`` it measures the
end-to-end numbers; with it, it makes the separate traced run that
yields the per-layer numbers and writes the spans there as JSONL.

Workloads (see README.md for why each one exists):

``train-f2``       CMP, serial, Agrawal F2: record-dominated scans.
``train-f7``       CMP, serial, Agrawal F7: many small nodes, so the
                   per-node estimate/predict/linear/resolve work dominates.
``train-f2-par2``  CMP-S on F2 with two forked scan workers per scan.
``serve-open``     CMP on F7 served through ``MicroBatcher`` under an
                   open loop, then offline batch scoring.

The deterministic end-to-end metrics (``holdout_acc``, ``scans``,
``sim_cost_ms``) come from a tree built on the workload's reference data
(``REFERENCE_SEED``), which every run builds whatever its ``--seed``.
They are therefore the same at every seed, so their regression bound can
be 0 while ten runs at ten seeds still agree.  The data of ``--seed``
drives everything else: the timed builds, the requests and the offline
rows.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()  # set-up time includes the imports below

import argparse
import gc
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from contextlib import nullcontext
from functools import partial
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))

import numpy as np

import layers
from repro.baselines.rainforest import RainForestBuilder
from repro.core import native, native_scan
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.compiled import compile_tree
from repro.data.synthetic import generate_agrawal
from repro.eval.experiments import default_config
from repro.obs.trace import Tracer
from repro.serve.admission import Overloaded
from repro.serve.batcher import MicroBatcher
from repro.serve.engine import ServingEngine
from repro.verify.differential import tree_signature

#: workload -> (Agrawal function, training records, builder, config overrides)
TRAINING = {
    "train-f2": ("F2", 200_000, CMPBuilder, {}),
    "train-f7": ("F7", 100_000, CMPBuilder, {}),
    "train-f2-par2": (
        "F2", 200_000, CMPSBuilder, {"scan_workers": 2, "scan_backend": "process"},
    ),
}
#: Reference builder timed (traced run only) on the same data.
REFERENCE = {"train-f2": RainForestBuilder}
SERVE = ("F7", 50_000)
#: Seed of the data every run builds (and serve-open serves); golden.json
#: holds what it must reproduce.  Seed 1 stays the held-out seed.
REFERENCE_SEED = 0
HOLDOUT_RECORDS = 20_000
OFFLINE_ROWS = 2_000_000
OFFLINE_REPEATS = 7
RATES = (1000, 2000, 4000, 8000)
BATCHER = dict(max_batch=256, max_delay_s=0.002, max_pending=8192, default_deadline_s=0.25)
#: A rate is sustained when its p99 (failures count as infinitely late)
#: stays under this, at most this share of requests fail, and the backlog
#: when its last request is sent is at most MAX_BACKLOG.
P99_LIMIT_MS = 25.0
MAX_FAIL_FRAC = 0.001
MAX_BACKLOG = 512
#: Builds of the ``--seed`` data per run, so that they can be compared.
MIN_BUILDS = 2
#: Set-up is repeated and its median reported, because one set-up of a
#: training workload takes a fraction of a second and host noise swamps it.
SETUPS = 3
#: Largest gap allowed between the traced wall time and the sum of the
#: layer self times plus ``build.other_s``.
RECONCILE_TOLERANCE = 0.01


def scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def tree_sha256(tree) -> str:
    return hashlib.sha256(repr(tree_signature(tree)).encode()).hexdigest()


def nearest_rank(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def load_kernels() -> None:
    """Load the native kernels (compiled into the cache by run.py)."""
    if not (native_scan.warm_up() and native.native_available()):
        raise SystemExit("native kernels are unavailable; run.py builds them first")


class Run:
    """Outcome of one run: operations, problems and the numbers measured."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.e2e: dict[str, float] = {}
        self.detail: dict[str, float] = {}
        self.layers: dict[str, float] = {}
        self.notes: dict[str, object] = {}

    def ok_frac(self) -> float:
        return (self.attempted - self.failed) / max(1, self.attempted)

    def problem(self, text: str) -> None:
        self.problems.append(text)
        print(f"workload: {text}", file=sys.stderr)

    def result(self) -> dict[str, object]:
        return {
            "correct": not self.problems,
            "attempted": self.attempted,
            "failed": self.failed,
            "problems": self.problems,
            "e2e": self.e2e,
            "detail": self.detail,
            "layers": self.layers,
            "notes": self.notes,
        }


# -- training --------------------------------------------------------------


def build_once(builder_cls, config, data, run: Run, tracer=None):
    """One timed build; a build that raises is counted and reported.

    With a tracer, the build runs under the traced run's root span.
    """
    gc.collect()
    run.attempted += 1
    root = tracer.span(layers.ROOT) if tracer is not None else nullcontext()
    start = time.perf_counter()
    try:
        with root:
            result = builder_cls(config, tracer=tracer).build(data)
    except Exception:
        run.failed += 1
        run.problem("build raised:\n" + traceback.format_exc())
        return None, time.perf_counter() - start
    return result, time.perf_counter() - start


def outcome_of(result, holdout) -> dict[str, object]:
    """What a build must reproduce: the tree and its accounting."""
    compiled = compile_tree(result.tree)
    return {
        "tree_sha256": tree_sha256(result.tree),
        "holdout_acc": float(np.mean(compiled.predict(holdout.X) == holdout.y)),
        "scans": result.stats.io.scans,
        "sim_cost_ms": float(result.stats.simulated_ms),
    }


def check_golden(workload, seed, records, outcome, golden, run: Run) -> None:
    entry = golden.get(workload, {}).get(str(seed))
    note = f"golden seed {seed}"
    if entry is None or entry["records"] != records:
        run.notes[note] = f"no golden for seed {seed} at {records} records"
        return
    wrong = [k for k in outcome if entry[k] != outcome[k]]
    if wrong:
        run.problem(
            f"golden mismatch at seed {seed} on " + ", ".join(
                f"{k}: {outcome[k]!r} != {entry[k]!r}" for k in wrong
            )
        )
        run.notes[note] = "MISMATCH"
    else:
        run.notes[note] = "matches"


def training_data(workload: str, seed: int, scale: float):
    """Training records of ``seed`` and the holdout set drawn with ``seed + 1``."""
    function, n, _, _ = TRAINING[workload]
    data = generate_agrawal(function, scaled(n, scale, 1000), seed=seed)
    holdout = generate_agrawal(function, scaled(HOLDOUT_RECORDS, scale, 500), seed=seed + 1)
    return data, holdout


def builder_of(workload: str):
    _, _, builder_cls, overrides = TRAINING[workload]
    return builder_cls, default_config(**overrides)


def train(args, golden, import_s: float) -> Run:
    """Build the reference data once, then the ``--seed`` data repeatedly."""
    run = Run()
    builder_cls, config = builder_of(args.workload)
    setups = []
    for _ in range(SETUPS):
        # Free the previous copies first, so peak_rss_mb measures the builds.
        ref = data = None
        start = time.perf_counter()
        ref, ref_holdout = training_data(args.workload, REFERENCE_SEED, args.scale)
        data, holdout = training_data(args.workload, args.seed, args.scale)
        setups.append(time.perf_counter() - start)
    run.e2e["setup_s"] = import_s + statistics.median(setups)

    began = time.perf_counter()
    result, _ = build_once(builder_cls, config, ref, run)
    if result is None:
        return run
    reference = outcome_of(result, ref_holdout)
    check_golden(args.workload, REFERENCE_SEED, ref.n_records, reference, golden, run)
    seconds, outcomes = [], []
    # At least MIN_BUILDS builds, then more while another fits the window.
    while len(seconds) < MIN_BUILDS or (
        time.perf_counter() - began + statistics.median(seconds) <= args.seconds
    ):
        result, took = build_once(builder_cls, config, data, run)
        if result is None:
            break
        seconds.append(took)
        outcomes.append(outcome_of(result, holdout))
    if not outcomes:
        return run
    first = outcomes[0]
    for i, other in enumerate(outcomes[1:], start=2):
        if other != first:
            run.failed += 1
            run.problem(f"build {i} differs from build 1: {other} != {first}")
    check_golden(args.workload, args.seed, data.n_records, first, golden, run)
    run.e2e.update(
        holdout_acc=reference["holdout_acc"],
        scans=reference["scans"],
        sim_cost_ms=reference["sim_cost_ms"],
        peak_rss_mb=peak_rss_mb(),
        ok_frac=run.ok_frac(),
    )
    train_s = statistics.median(seconds)
    run.detail.update(
        train_s=train_s, builds=len(seconds), records=data.n_records,
        fail_frac=run.failed / run.attempted, holdout_acc=first["holdout_acc"],
        scans=first["scans"],
    )
    run.notes["tree_sha256"] = first["tree_sha256"]
    run.notes["build_s"] = [round(s, 4) for s in seconds]
    return run


def train_traced(args, golden, import_s: float) -> Run:
    """Untraced build, then one build with every layer wrapped."""
    run = Run()
    builder_cls, config = builder_of(args.workload)
    data, holdout = training_data(args.workload, args.seed, args.scale)
    plain, plain_s = build_once(builder_cls, config, data, run)
    if plain is None:
        return run
    reference = REFERENCE.get(args.workload)
    if reference is not None:
        ref_s = [build_once(reference, config, data, run)[1] for _ in range(2)]
        run.layers["ref.rainforest.train_s"] = statistics.median(ref_s)

    tracer = Tracer()
    kernels_before = native_scan.kernel_counts()
    with layers.installed(tracer):
        traced, wall = build_once(builder_cls, config, data, run, tracer=tracer)
    if traced is None:
        return run
    kernels_after = native_scan.kernel_counts()

    outcome = outcome_of(plain, holdout)
    if outcome_of(traced, holdout) != outcome:
        run.failed += 1
        run.problem("the traced build differs from the untraced one")
    check_golden(args.workload, args.seed, data.n_records, outcome, golden, run)

    spans = tracer.spans()
    rows = layers.layer_table(spans)
    accounted = sum(rows[name]["self_s"] for name in (*layers.TRAINING_LAYERS, "other"))
    gap = abs(accounted - wall) / wall
    if gap > RECONCILE_TOLERANCE:
        run.problem(
            f"layer self times sum to {accounted:.4f} s, traced wall is "
            f"{wall:.4f} s ({100 * gap:.2f}% apart)"
        )
    stats = traced.stats
    out = run.layers
    for name in layers.TRAINING_LAYERS:
        out[f"{name}.calls"] = rows[name]["calls"]
        out[f"{name}.s"] = rows[name]["self_s"]
    # A scan pass is reported whole as well as by its own share.
    out["parallel.scan.s"] = rows["parallel.scan"]["s"]
    out["parallel.scan.self_s"] = rows["parallel.scan"]["self_s"]
    out["parallel.worker.batches"] = rows["worker"]["calls"]
    out["parallel.worker.s"] = rows["worker"]["s"]
    out["histogram.accumulate.records"] = rows["histogram.accumulate"]["records"]
    out["builder.buffer.records"] = rows["builder.buffer"]["records"]
    for kernel, calls in kernels_after.items():
        out[f"native_scan.{kernel}.calls"] = calls - kernels_before.get(kernel, 0)
    out.update(
        {
            "io.pages": stats.io.pages_read,
            "io.retries": stats.io.read_retries,
            "builder.buffer.overflow_rescans": stats.buffer_overflow_rescans,
            "predict.predict_split.accuracy": stats.prediction_accuracy,
            "linear.splits": stats.linear_splits,
            "builder.resolve.exact": stats.splits_resolved_exactly,
            "build.phase_scan_s": stats.phase_seconds.get("scan", 0.0),
            "build.phase_resolve_s": stats.phase_seconds.get("resolve", 0.0),
            "build.other_s": rows["other"]["self_s"],
            "build.train_s": plain_s,
            "build.traced_s": wall,
            "memory.ledger_peak_mb": stats.memory.peak / 2**20,
            "tree.nodes": traced.tree.n_nodes,
            "tree.levels": stats.levels_built,
            "trace.overhead": wall / plain_s - 1.0,
        }
    )
    run.notes["spans"] = tracer.write_jsonl(args.trace_out)
    run.notes["reconcile_gap"] = gap
    return run


# -- serving ---------------------------------------------------------------


def serve_setup(seed: int, scale: float):
    """Train and compile the served tree on the reference data; draw the
    requests and offline rows from ``seed``."""
    function, n = SERVE
    times, compile_s = [], []
    for _ in range(SETUPS):
        offline = None  # free the previous copy before making the next
        start = time.perf_counter()
        data = generate_agrawal(function, scaled(n, scale, 1000), seed=REFERENCE_SEED)
        holdout = generate_agrawal(
            function, scaled(HOLDOUT_RECORDS, scale, 500), seed=REFERENCE_SEED + 1
        )
        requests = generate_agrawal(
            function, scaled(HOLDOUT_RECORDS, scale, 500), seed=seed + 1
        ).X
        offline = generate_agrawal(
            function, scaled(OFFLINE_ROWS, scale, 10_000), seed=seed + 2
        ).X
        result = CMPBuilder(default_config()).build(data)
        compiled_at = time.perf_counter()
        model = compile_tree(result.tree)
        done = time.perf_counter()
        times.append(done - start)
        compile_s.append(done - compiled_at)
    return data.n_records, result, model, holdout, requests, offline, times, compile_s


def open_loop(engine, key, rows, expected, rate, duration_s, latest=None, epoch=0.0):
    """Send single-row requests every ``1/rate`` s, whatever the replies.

    Latency runs from each request's due time, so a stalled sender
    charges its lateness to every request behind it.  Returns per-request
    latencies (``inf`` for any request not answered correctly), how late
    each was sent, outcome names, the backlog when the last request was
    sent, and, when ``latest`` carries the engine spans, each answered
    request's queue wait and delivery time.
    """
    n = max(1, round(rate * duration_s))
    m = len(rows)
    sent = [0.0] * n
    done = [0.0] * n
    status = ["pending"] * n
    waits: list[float] = []
    delivers: list[float] = []

    def finished(i: int, future) -> None:
        done[i] = time.perf_counter()
        exc = future.exception()
        if exc is not None:
            status[i] = type(exc).__name__
            return
        status[i] = "ok" if future.result() == expected[i % m] else "wrong"
        if latest is not None:
            call = latest["engine.predict"]
            waits.append(epoch + call.start_s - sent[i])
            delivers.append(done[i] - (epoch + call.end_s))

    gc.collect()
    batcher = MicroBatcher(engine, key, **BATCHER)
    t0 = time.perf_counter() + 0.005
    backlog = 0
    try:
        for i in range(n):
            due = t0 + i / rate
            now = time.perf_counter()
            while now < due:
                time.sleep(due - now)
                now = time.perf_counter()
            sent[i] = now
            try:
                future = batcher.submit(rows[i % m])
            except Overloaded:
                status[i] = "shed"
                continue
            future.add_done_callback(partial(finished, i))
        backlog = status.count("pending")
    finally:
        batcher.close()
    due = [t0 + i / rate for i in range(n)]
    latency = [
        (done[i] - due[i]) * 1000.0 if status[i] == "ok" else math.inf
        for i in range(n)
    ]
    lag = [(sent[i] - due[i]) * 1000.0 for i in range(n)]
    return {
        "n": n, "latency_ms": latency, "lag_ms": lag, "status": status,
        "backlog": backlog, "waits": waits, "delivers": delivers,
    }


def serve(args, golden, import_s: float) -> Run:
    run = Run()
    records, result, model, holdout, requests, offline, setups, compile_s = serve_setup(
        args.seed, args.scale
    )
    run.e2e["setup_s"] = import_s + statistics.median(setups)
    served = outcome_of(result, holdout)
    check_golden(args.workload, REFERENCE_SEED, records, served, golden, run)
    expected = model.predict(requests)
    rows = list(requests)
    offline_expected = model.predict(offline)

    epoch = time.perf_counter()
    tracer = Tracer(epoch=epoch) if args.trace_out else None
    engine = ServingEngine(workers=2, tracer=tracer)
    key = engine.registry.register(model)
    per_rate_s = args.seconds / len(RATES)
    ladder: dict[int, dict] = {}
    offline_s: list[float] = []
    with (
        layers.installed(tracer, layers.SERVING_TARGETS)
        if tracer is not None
        else nullcontext()
    ) as latest:
        try:
            for rate in RATES:
                ladder[rate] = open_loop(
                    engine, key, rows, expected, rate, per_rate_s, latest, epoch
                )
            ladder_spans = len(tracer) if tracer is not None else 0
            for _ in range(OFFLINE_REPEATS):
                gc.collect()
                run.attempted += 1
                start = time.perf_counter()
                out = engine.predict(key, offline)
                offline_s.append(time.perf_counter() - start)
                if not np.array_equal(out, offline_expected):
                    run.failed += 1
                    run.problem("offline scores differ from CompiledTree.predict")
        finally:
            engine.close()

    for rate, r in ladder.items():
        wrong = r["status"].count("wrong")
        if wrong:
            run.problem(f"{wrong} answers at {rate} rps differ from CompiledTree.predict")
        run.attempted += r["n"]
        run.failed += r["n"] - r["status"].count("ok")
    sustained = [
        rate for rate, r in ladder.items()
        if nearest_rank(r["latency_ms"], 0.99) <= P99_LIMIT_MS
        and (r["n"] - r["status"].count("ok")) <= MAX_FAIL_FRAC * r["n"]
        and r["backlog"] <= MAX_BACKLOG
    ]
    score_rows_per_s = len(offline) / statistics.median(offline_s)
    run.e2e.update(
        holdout_acc=served["holdout_acc"],
        scans=served["scans"],
        sim_cost_ms=served["sim_cost_ms"],
        peak_rss_mb=peak_rss_mb(),
        ok_frac=run.ok_frac(),
    )
    run.detail.update(
        serve_p50_ms=nearest_rank(ladder[4000]["latency_ms"], 0.5),
        serve_p99_ms=nearest_rank(ladder[1000]["latency_ms"], 0.99),
        serve_p99_samples=ladder[1000]["n"],
        serve_max_rps=max(sustained, default=0),
        score_rows_per_s=score_rows_per_s,
        fail_frac=run.failed / run.attempted,
    )
    run.notes["backlog"] = {rate: r["backlog"] for rate, r in ladder.items()}
    run.notes["p50_ms"] = {
        rate: round(nearest_rank(r["latency_ms"], 0.5), 4) for rate, r in ladder.items()
    }
    if tracer is None:
        return run
    out = run.layers
    out.update(layers.serving_table(tracer.spans(), ladder_spans))
    waits = [1000.0 * w for r in ladder.values() for w in r["waits"]]
    delivers = [1000.0 * d for r in ladder.values() for d in r["delivers"]]
    lag = [x for r in ladder.values() for x in r["lag_ms"]]
    status = [s for r in ladder.values() for s in r["status"]]
    out.update(
        {
            "batcher.queue_wait_ms.p50": nearest_rank(waits, 0.5),
            "batcher.queue_wait_ms.p99": nearest_rank(waits, 0.99),
            "batcher.deliver_ms.p99": nearest_rank(delivers, 0.99),
            "serve.shed": status.count("shed"),
            "serve.timeouts": status.count("DeadlineExceeded"),
            "loadgen.lag_ms.p99": nearest_rank(lag, 0.99),
            "loadgen.lag_ms.max": max(lag),
            "compiled.compile.s": statistics.median(compile_s),
            "serve.max_rps": run.detail["serve_max_rps"],
            "serve.score_rows_per_s": score_rows_per_s,
            "serve.fail_frac": run.detail["fail_frac"],
            "tree.nodes": model.n_nodes,
            "tree.levels": model.depth,
        }
    )
    for rate, r in ladder.items():
        for q in (50, 99):
            out[f"serve.p{q}_ms.r{rate}"] = nearest_rank(r["latency_ms"], q / 100)
    run.notes["spans"] = tracer.write_jsonl(args.trace_out)
    return run


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*TRAINING, "serve-open"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--scale", type=float, default=1.0)
    parser.add_argument("--golden", required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args(argv)
    load_kernels()
    import_s = time.perf_counter() - _STARTED
    golden = json.loads(Path(args.golden).read_text(encoding="utf-8"))
    if args.workload == "serve-open":
        run = serve(args, golden, import_s)
    elif args.trace_out:
        run = train_traced(args, golden, import_s)
    else:
        run = train(args, golden, import_s)
    print(json.dumps(run.result()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
