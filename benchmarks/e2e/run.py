"""End-to-end benchmark for CMP training and serving.

Run from the repository root::

    python3 benchmarks/e2e/run.py --workload train-f2 --seed 0 --seconds 20 --trace 0

Each run builds the native kernels into ``.bench_build/e2e/native`` if
they are not there yet, times a host calibration loop, runs the workload
in a fresh process (``workload.py``), times the calibration loop again,
and prints a readable report followed by one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` the run is a separate traced run
whose metrics are the per-layer ones, and its spans are written as JSONL
under ``.bench_build/e2e/`` for ``cmp-repro inspect-trace``.  The exit
code is 0 only when every output was checked and correct.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = ROOT / ".bench_build" / "e2e"
CHILD_TIMEOUT_S = 170
#: Host calibration drift beyond which a run is flagged as noisy.
DRIFT_FLAG = 0.05


def fail(message: str, code: int = 2) -> int:
    print(f"run.py: {message}", file=sys.stderr)
    return code


def build_kernels() -> bool:
    """Compile the native kernels into the benchmark's cache (once per checkout)."""
    sys.path.insert(0, str(ROOT / "src"))
    from repro.core import native, native_scan

    return native_scan.warm_up() and native.native_available()


def calibrate() -> float:
    """Fastest of five timings of a fixed numpy + pure-Python loop.

    The minimum tracks the host's sustained speed and ignores one-off
    stalls, such as caches the workload process left cold.
    """
    import numpy as np

    values = np.random.default_rng(12345).random(1_000_000)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.sort(values)
        acc = 0
        for i in range(600_000):
            acc += i ^ (i >> 3)
        times.append(time.perf_counter() - start)
    return min(times)


def run_child(command: list[str]) -> tuple[int, str]:
    """Run the workload process; kill its whole process group on timeout."""
    proc = subprocess.Popen(
        command, stdout=subprocess.PIPE, text=True, cwd=ROOT, start_new_session=True
    )
    try:
        stdout, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return -1, ""
    return proc.returncode, stdout


def main(argv: list[str] | None = None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "repro").is_dir() or not spec_path.is_file():
        return fail(f"no CMP sources under {ROOT}; run from a full checkout")
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description="End-to-end CMP benchmark")
    parser.add_argument(
        "--workload", required=True, choices=[w["name"] for w in spec["workloads"]]
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply record counts (the self-test runs tiny workloads)",
    )
    parser.add_argument("--golden", default=str(HERE / "golden.json"))
    args = parser.parse_args(argv)

    OUT.mkdir(parents=True, exist_ok=True)
    os.environ["CMP_NATIVE_CACHE"] = str(OUT / "native")
    if not build_kernels():
        return fail("the native kernels did not build (is a C compiler installed?)")

    command = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--scale", str(args.scale),
        "--golden", args.golden,
    ]
    trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl"
    if args.trace:
        command += ["--trace-out", str(trace_path)]
    calib_before = calibrate()
    code, stdout = run_child(command)
    calib_after = calibrate()
    if code != 0 or not stdout.strip():
        return fail(f"workload process failed (exit {code})", 1)
    child = json.loads(stdout.strip().splitlines()[-1])

    group = "per_layer" if args.trace else "end_to_end"
    measured = child["layers"] if args.trace else child["e2e"]
    units = {m["name"]: m["unit"] for m in spec[group]}
    unexpected = sorted(set(measured) - set(units))
    missing = sorted(set(units) - set(measured))
    problems = list(child["problems"])
    if unexpected:
        problems.append(f"metrics not in BENCHMARK.json: {unexpected}")
    if missing and not args.trace:
        problems.append(f"end-to-end metrics not measured: {missing}")
    metrics = {
        name: {"value": measured.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }

    drift = calib_after / calib_before - 1.0
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>16.6g} {metric['unit']}")
    if args.trace and missing:
        print(f"  (0 where this workload does not exercise the layer: {len(missing)} metrics)")
    for name, value in child["detail"].items():
        print(f"  detail {name:<29} {value:>16.6g}")
    for name, value in child["notes"].items():
        print(f"  note {name}: {value}")
    if args.trace:
        print(f"  trace written to {trace_path}")
    flag = "  FLAGGED: host speed changed" if abs(drift) > DRIFT_FLAG else ""
    print(
        f"  host_calib_drift {drift:+.2%} (calibration {calib_before:.4f} s before, "
        f"{calib_after:.4f} s after){flag}"
    )
    for problem in problems:
        print(f"  PROBLEM: {problem.splitlines()[0]}")
    print(
        json.dumps(
            {
                "correct": not problems,
                "attempted": child["attempted"],
                "failed": child["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
