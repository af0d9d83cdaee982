"""Benchmark: serving under sustained overload stays bounded and honest.

Standalone script (not a pytest benchmark): registers a deterministically
slow model (:class:`~repro.serve.faults.SlowModel` — the sleep releases
the GIL, so service time is the delay and capacity is
``admission depth / delay``), then drives it with more closed-loop
clients than admission permits.  The hardened front-end must:

* **shed, not queue** — excess arrivals are rejected ``Overloaded`` in
  O(1), so the shed count is positive and large;
* **keep admitted latency flat** — the p99 of *admitted* requests stays
  within ``--p99-factor`` (default 3x) of the uncontended p99, because
  no admitted request ever waits behind an unbounded backlog;
* **stay bit-identical** — admitted responses equal direct
  ``CompiledTree.predict`` output, overload or not;
* **count what it sheds** — ``ServingStats.snapshot()["shed"]`` equals
  the number of ``Overloaded`` rejections the clients saw.

Emits ``BENCH_serve.json`` and exits nonzero when any bound fails, so
CI turns an unbounded p99 or a zero shed-rate into a red build::

    PYTHONPATH=src python benchmarks/bench_serve_saturation.py \
        --clients 8 --queue-depth 2 --out BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro.eval.treegen import random_batch, random_tree
from repro.obs import SLODefinition, SLOMonitor
from repro.serve import Overloaded, ServingEngine, SlowModel


def _percentile(samples: list[float], q: float) -> float:
    return float(np.percentile(np.asarray(samples), q)) if samples else 0.0


def _uncontended(engine, key, X, calls: int) -> list[float]:
    latencies = []
    for _ in range(calls):
        start = time.perf_counter()
        engine.predict(key, X)
        latencies.append(time.perf_counter() - start)
    return latencies


def _saturate(
    engine,
    key,
    X,
    clients: int,
    requests_per_client: int,
    backoff_s: float,
) -> tuple[list[float], int, int]:
    """Closed-loop overload: each client retries until its quota is served."""
    lock = threading.Lock()
    latencies: list[float] = []
    shed = 0
    errors = 0

    def client() -> None:
        nonlocal shed, errors
        served = 0
        while served < requests_per_client:
            start = time.perf_counter()
            try:
                engine.predict(key, X)
            except Overloaded:
                with lock:
                    shed += 1
                time.sleep(backoff_s)
                continue
            except Exception:  # noqa: BLE001 - counted, asserted zero below
                with lock:
                    errors += 1
                served += 1
                continue
            elapsed = time.perf_counter() - start
            with lock:
                latencies.append(elapsed)
            served += 1

    threads = [threading.Thread(target=client) for _ in range(clients)]
    wall = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    wall = time.perf_counter() - wall
    return latencies, shed, errors


def run(args: argparse.Namespace) -> dict[str, object]:
    delay_s = args.delay_ms / 1000.0
    tree = random_tree(depth=args.depth, seed=args.seed)
    compiled = tree.compiled()
    slow = SlowModel(compiled, delay_s=delay_s)
    engine = ServingEngine(max_queue_depth=args.queue_depth)
    key = engine.registry.register(slow)
    X = random_batch(tree.schema, args.records, seed=args.seed + 1)
    expected = compiled.predict(X)

    # Bit-identity: the hardened path may shed a request, but it may
    # never alter an admitted answer.
    np.testing.assert_array_equal(engine.predict(key, X), expected)

    base = _uncontended(engine, key, X, args.baseline_calls)
    base_p99 = _percentile(base, 99)

    # Informational SLO: sample the availability objective before and
    # after the overload and report burn rates.  A saturation run is
    # *designed* to shed, so the burn must blow far past every alerting
    # threshold — that asymmetry (alerts fire, yet admitted traffic
    # stays healthy) is exactly what load shedding buys.
    slo = SLOMonitor(
        SLODefinition(name="saturation-availability", objective=args.slo_objective)
    )
    slo.observe_stats(engine.registry.stats(key).snapshot())

    latencies, shed, errors = _saturate(
        engine,
        key,
        X,
        clients=args.clients,
        requests_per_client=args.requests_per_client,
        backoff_s=delay_s / 4.0,
    )
    sat_p99 = _percentile(latencies, 99)
    snap = engine.registry.stats(key).snapshot()
    admission = engine.admission.snapshot()
    slo.observe_stats(snap)
    slo_report = slo.snapshot()

    # Post-overload identity spot check: the engine recovered cleanly.
    np.testing.assert_array_equal(engine.predict(key, X), expected)

    capacity_rps = args.queue_depth / delay_s
    offered = args.clients / delay_s  # each client re-offers every delay
    p99_bound = args.p99_factor * max(base_p99, delay_s)
    checks = {
        "shed_positive": shed > 0,
        "p99_bounded": sat_p99 <= p99_bound,
        "no_errors": errors == 0,
        "all_served": len(latencies)
        == args.clients * args.requests_per_client,
        # The engine counts a shed request right before raising
        # Overloaded, and only the overload phase sheds.
        "stats_shed_matches": snap["shed"] == shed,
    }
    report: dict[str, object] = {
        "benchmark": "serve_saturation",
        "python": platform.python_version(),
        "config": {
            "queue_depth": args.queue_depth,
            "clients": args.clients,
            "requests_per_client": args.requests_per_client,
            "delay_ms": args.delay_ms,
            "records_per_request": args.records,
            "tree_depth": args.depth,
            "seed": args.seed,
            "p99_factor": args.p99_factor,
        },
        "offered_vs_capacity": round(offered / capacity_rps, 2),
        "uncontended_p99_ms": round(base_p99 * 1000, 3),
        "saturated_p99_ms": round(sat_p99 * 1000, 3),
        "p99_bound_ms": round(p99_bound * 1000, 3),
        "admitted": len(latencies),
        "shed": shed,
        "shed_fraction": round(shed / max(shed + len(latencies), 1), 3),
        "errors": errors,
        "peak_queue_depth": admission["peak_depth"],
        "stats": {k: snap[k] for k in ("requests", "batches", "shed", "timeouts")},
        "slo": slo_report,
        "checks": checks,
        "passed": all(checks.values()),
    }
    print(
        f"capacity={capacity_rps:.0f} rps, offered~{offered / capacity_rps:.1f}x: "
        f"admitted={len(latencies)} shed={shed} errors={errors}"
    )
    print(
        f"p99 uncontended={base_p99 * 1000:.2f}ms "
        f"saturated={sat_p99 * 1000:.2f}ms bound={p99_bound * 1000:.2f}ms"
    )
    for name, ok in checks.items():
        print(f"  {'ok' if ok else 'FAIL'}: {name}")
    worst = max(
        (a["short_burn"] for a in slo_report["alerts"]), default=0.0
    )
    print(
        f"slo {slo_report['slo']}: compliance="
        f"{slo_report['compliance']:.4f} worst_burn={worst:.1f} "
        f"firing={slo_report['firing']}"
    )
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--queue-depth", type=int, default=2)
    parser.add_argument("--clients", type=int, default=8)
    parser.add_argument("--requests-per-client", type=int, default=40)
    parser.add_argument("--delay-ms", type=float, default=5.0)
    parser.add_argument("--records", type=int, default=64)
    parser.add_argument("--depth", type=int, default=6)
    parser.add_argument("--baseline-calls", type=int, default=50)
    parser.add_argument("--p99-factor", type=float, default=3.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--slo-objective",
        type=float,
        default=0.999,
        metavar="OBJ",
        help="availability objective for the informational burn-rate report",
    )
    parser.add_argument("--out", default="BENCH_serve.json", metavar="PATH")
    args = parser.parse_args(argv)

    if args.clients <= args.queue_depth:
        parser.error("--clients must exceed --queue-depth to overload the gate")

    report = run(args)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.out}")
    if not report["passed"]:
        print("ERROR: saturation bounds violated", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
