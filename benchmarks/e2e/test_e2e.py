"""Self-test of the end-to-end benchmark at tiny scale.

Run from the repository root (outside the tier-1 suite)::

    PYTHONPATH=src pytest benchmarks/e2e -q

Every workload runs with about 5k training records and 0.3 s per
serving rate, untraced and traced.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
TINY = ["--scale", "0.025", "--seconds", "1.2"]

sys.path.insert(0, str(HERE))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "benchmarks" / "e2e" / "run.py"), *args],
        capture_output=True, text=True, cwd=cwd, timeout=170,
    )


@pytest.fixture(scope="module")
def tiny_run():
    """Run a workload at tiny scale once per (workload, trace) and share it."""
    runs: dict[tuple[str, int], subprocess.CompletedProcess] = {}

    def run(workload: str, trace: int) -> subprocess.CompletedProcess:
        if (workload, trace) not in runs:
            runs[workload, trace] = bench(
                "--workload", workload, "--seed", "0", "--trace", str(trace), *TINY
            )
        return runs[workload, trace]

    return run


def last_json(proc: subprocess.CompletedProcess) -> dict:
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_names_are_well_formed():
    groups = [SPEC["workloads"], SPEC["end_to_end"], SPEC["per_layer"]]
    names = [m["name"] for group in groups for m in group]
    assert all(NAME.fullmatch(n) for n in names), names
    assert len(names) == len(set(names))
    assert any(m["name"] == "setup_s" for m in SPEC["end_to_end"])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_metrics_match_benchmark_json(tiny_run, workload, trace):
    proc = tiny_run(workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    out = last_json(proc)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] is True
    assert out["attempted"] >= 1 and out["failed"] == 0
    group = SPEC["per_layer" if trace else "end_to_end"]
    assert {n: m["unit"] for n, m in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in group
    }
    for name, metric in out["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
        if not trace:
            assert metric["value"] > 0, name


@pytest.mark.parametrize("workload", [w for w in WORKLOADS if w.startswith("train")])
def test_trace_reconciles_and_inspects(tiny_run, workload):
    from repro.obs.trace import load_trace_jsonl

    import layers

    proc = tiny_run(workload, 1)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    path = re.search(r"trace written to (\S+)", proc.stdout).group(1)
    metrics = last_json(proc)["metrics"]
    rows = layers.layer_table(load_trace_jsonl(path))
    accounted = sum(rows[n]["self_s"] for n in (*layers.TRAINING_LAYERS, "other"))
    wall = metrics["build.traced_s"]["value"]
    assert abs(accounted - wall) <= 0.01 * wall
    inspect = subprocess.run(
        [sys.executable, "-m", "repro", "inspect-trace", path],
        capture_output=True, text=True, cwd=ROOT, env={"PYTHONPATH": str(ROOT / "src")},
    )
    assert inspect.returncode == 0, inspect.stdout + inspect.stderr


def test_unknown_seed_has_no_golden(tiny_run):
    assert "no golden for seed 0" in tiny_run("train-f7", 0).stdout


@pytest.mark.parametrize("workload", ["train-f7", "serve-open"])
def test_bound_zero_metrics_do_not_depend_on_seed(tiny_run, workload):
    """Ten runs at ten seeds must agree exactly on every metric bounded by 0."""
    other = bench("--workload", workload, "--seed", "2", "--trace", "0", *TINY)
    assert other.returncode == 0, other.stdout + other.stderr
    exact = [m["name"] for m in SPEC["end_to_end"] if m["bound"] == 0]
    first = last_json(tiny_run(workload, 0))["metrics"]
    second = last_json(other)["metrics"]
    assert {n: first[n] for n in exact} == {n: second[n] for n in exact}


def test_tampered_golden_fails(tmp_path):
    golden = {
        "train-f7": {
            "0": {
                "records": 2500, "tree_sha256": "0" * 64, "holdout_acc": 1.0,
                "scans": 1, "sim_cost_ms": 1.0,
            }
        }
    }
    path = tmp_path / "golden.json"
    path.write_text(json.dumps(golden), encoding="utf-8")
    proc = bench("--workload", "train-f7", "--seed", "0", "--golden", str(path), *TINY)
    assert proc.returncode != 0
    assert last_json(proc)["correct"] is False
    assert "golden mismatch" in proc.stdout


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e")
    proc = bench("--workload", "train-f2", "--seed", "0", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
