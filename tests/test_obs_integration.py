"""End-to-end observability tests: tracing must observe, never steer.

The hard invariants:

* a traced build is **bit-identical** to an untraced one, for every
  builder, serial and chunk-parallel;
* the trace's ``scan`` span count equals ``IOStats.scans`` (the
  structural cross-check ``cmp-repro inspect-trace`` enforces);
* retries under fault injection surface as ``retry`` spans, one per
  ``IOStats.read_retries``;
* the CLI round-trips: ``--trace``/``--metrics`` write files that
  ``inspect-trace`` and a Prometheus parser accept.
"""

from __future__ import annotations

import json

import pytest

from repro.baselines.clouds import CloudsBuilder
from repro.config import BuilderConfig
from repro.core.cmp_b import CMPBBuilder
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.serialize import tree_to_json
from repro.data.synthetic import generate_agrawal
from repro.ensemble import BaggedForestBuilder, HistGradientBoostingBuilder
from repro.io.faults import FaultInjector, FaultyDataset
from repro.obs import (
    Tracer,
    load_trace_jsonl,
    summarize_trace,
)

BUILDERS = (CMPSBuilder, CMPBBuilder, CMPBuilder)


@pytest.fixture(scope="module")
def dataset():
    return generate_agrawal("F2", 4_000, seed=11)


@pytest.fixture(scope="module")
def config():
    return BuilderConfig(max_depth=6)


class TestBitIdentity:
    @pytest.mark.parametrize("builder_cls", BUILDERS, ids=lambda c: c.name)
    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_traced_build_is_bit_identical(
        self, builder_cls, workers, dataset, config
    ):
        cfg = config.with_(scan_workers=workers)
        plain = builder_cls(cfg).build(dataset)
        tracer = Tracer()
        traced = builder_cls(cfg, tracer=tracer).build(dataset)
        assert tree_to_json(plain.tree) == tree_to_json(traced.tree)
        assert len(tracer.spans()) > 0
        # The untraced build recorded nothing anywhere.
        assert plain.stats.io.snapshot() == traced.stats.io.snapshot()


class TestScanCrossCheck:
    @pytest.mark.parametrize("builder_cls", BUILDERS, ids=lambda c: c.name)
    @pytest.mark.parametrize("workers", [1, 3], ids=["serial", "parallel"])
    def test_scan_spans_match_iostats(self, builder_cls, workers, dataset, config):
        tracer = Tracer()
        result = builder_cls(
            config.with_(scan_workers=workers), tracer=tracer
        ).build(dataset)
        spans = tracer.spans()
        scan_spans = [sp for sp in spans if sp.name == "scan"]
        assert len(scan_spans) == result.stats.io.scans
        build_spans = [sp for sp in spans if sp.name == "build"]
        assert len(build_spans) == 1
        assert build_spans[0].attrs["scans"] == result.stats.io.scans
        assert build_spans[0].attrs["builder"] == builder_cls.name

    def test_summarize_trace_consistent(self, dataset, config):
        tracer = Tracer()
        CMPBuilder(config, tracer=tracer).build(dataset)
        summary = summarize_trace(tracer.spans())
        assert summary.consistent
        (check,) = summary.builds
        assert check.builder == "CMP"
        assert check.counted_scans == check.recorded_scans
        # Each completed level traces exactly one scan, level 0 the
        # root pass; the prelude (quantiling) accounts for the rest.
        per_level = check.scans_per_level
        assert all(per_level[lv] == 1 for lv in per_level if lv != -1)
        assert sum(per_level.values()) == check.counted_scans

    def test_boosted_scans_file_under_levels(self, dataset, config):
        tracer = Tracer()
        result = HistGradientBoostingBuilder(
            config, n_iterations=2, tracer=tracer
        ).build(dataset)
        summary = summarize_trace(tracer.spans())
        assert summary.consistent
        (check,) = summary.builds
        assert check.builder == "hist-gbdt"
        assert check.counted_scans == result.stats.io.scans
        # Only the binning pass runs before the first level.
        assert check.scans_per_level[-1] == 1
        assert sum(check.scans_per_level.values()) == check.counted_scans

    @pytest.mark.parametrize(
        "make,level0_scans",
        [
            (lambda cfg, tr: BaggedForestBuilder(cfg, n_trees=3, tracer=tr), 1),
            (lambda cfg, tr: CMPSBuilder(cfg, tracer=tr), 1),
            (lambda cfg, tr: CMPBBuilder(cfg, tracer=tr), 1),
            (lambda cfg, tr: CMPBuilder(cfg, tracer=tr), 1),
            (lambda cfg, tr: CloudsBuilder(cfg.with_(clouds_mode="ss"), tracer=tr), 1),
            # The exact pass the root's decision waits on files under level 0.
            (lambda cfg, tr: CloudsBuilder(cfg.with_(clouds_mode="sse"), tracer=tr), 2),
        ],
        ids=["bagged", "CMP-S", "CMP-B", "CMP", "CLOUDS-SS", "CLOUDS-SSE"],
    )
    def test_level_scans_file_under_levels(self, make, level0_scans, dataset, config):
        tracer = Tracer()
        builder = make(config, tracer)
        result = builder.build(dataset)
        summary = summarize_trace(tracer.spans())
        assert summary.consistent
        (check,) = summary.builds
        assert check.builder == builder.name
        assert check.counted_scans == result.stats.io.scans
        # Only the quantiling scan precedes the first level; level 0
        # holds the root pass.
        assert check.scans_per_level[-1] == 1
        assert check.scans_per_level[0] == level0_scans
        assert sum(check.scans_per_level.values()) == check.counted_scans

    def test_parallel_scan_spans_carry_worker_children(self, dataset, config):
        tracer = Tracer()
        CMPBuilder(config.with_(scan_workers=3), tracer=tracer).build(dataset)
        spans = tracer.spans()
        scan_ids = {sp.span_id for sp in spans if sp.name == "scan"}
        batches = [sp for sp in spans if sp.name == "chunk_batch"]
        assert batches
        assert all(sp.parent_id in scan_ids for sp in batches)


class TestRetrySpans:
    def test_retry_spans_match_retry_count(self, config):
        base = generate_agrawal("F2", 2_000, seed=5)
        injector = FaultInjector(transient_rate=0.2, seed=9)
        faulty = FaultyDataset(base, injector)
        tracer = Tracer()
        # Small pages -> many chunks per scan, so the per-chunk fault
        # rate actually fires (same setup as tests/test_faults.py).
        result = CMPSBuilder(
            config.with_(scan_retries=3, page_records=10), tracer=tracer
        ).build(faulty)
        retries = [sp for sp in tracer.spans() if sp.name == "retry"]
        assert injector.total_injected > 0
        assert len(retries) == result.stats.io.read_retries
        for sp in retries:
            assert sp.attrs["attempt"] >= 1
            assert sp.attrs["backoff_ms"] >= 0
            assert sp.attrs["error"]


class TestCliRoundTrip:
    def test_trace_metrics_and_inspect(self, tmp_path, capsys):
        from repro.cli import main

        trace_path = tmp_path / "t.jsonl"
        prom_path = tmp_path / "m.prom"
        json_path = tmp_path / "m.json"

        rc = main(
            [
                "demo",
                "--records",
                "2000",
                "--max-depth",
                "5",
                "--trace",
                str(trace_path),
                "--metrics",
                str(prom_path),
            ]
        )
        assert rc == 0
        spans = load_trace_jsonl(str(trace_path))
        assert any(sp.name == "build" for sp in spans)
        prom = prom_path.read_text()
        assert "# TYPE cmp_io_scans_total counter" in prom
        assert "cmp_build_total" in prom

        rc = main(["inspect-trace", str(trace_path), "--top", "3"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "cross-check: OK" in out
        assert "Per-phase rollup" in out

        rc = main(
            [
                "demo",
                "--records",
                "2000",
                "--max-depth",
                "5",
                "--metrics",
                str(json_path),
            ]
        )
        assert rc == 0
        data = json.loads(json_path.read_text())
        assert data["cmp_io_scans_total"]["type"] == "counter"

    def test_inspect_trace_missing_file(self, capsys):
        from repro.cli import main

        assert main(["inspect-trace", "/nonexistent/trace.jsonl"]) == 2

    def test_inspect_trace_detects_mismatch(self, tmp_path, capsys):
        from repro.cli import main

        # A build span claiming 5 scans over a trace containing one.
        lines = [
            {"span_id": 0, "parent_id": None, "name": "build", "start_s": 0.0,
             "dur_s": 1.0, "attrs": {"builder": "CMP", "scans": 5}},
            {"span_id": 1, "parent_id": 0, "name": "scan", "start_s": 0.1,
             "dur_s": 0.2, "attrs": {}},
        ]
        path = tmp_path / "bad.jsonl"
        path.write_text("".join(json.dumps(l) + "\n" for l in lines))
        rc = main(["inspect-trace", str(path)])
        out = capsys.readouterr().out
        assert rc == 1
        assert "MISMATCH" in out

    def test_serve_bench_reports_percentiles(self, capsys):
        from repro.cli import main

        rc = main(
            ["serve-bench", "--records", "4000", "--batch", "1000", "--depth", "5"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "p50_latency_ms" in out
        assert "p90_latency_ms" in out
        assert "p99_latency_ms" in out


needs_fork = pytest.mark.skipif(
    not __import__(
        "repro.core.parallel", fromlist=["process_backend_available"]
    ).process_backend_available(),
    reason="fork start method unavailable",
)


@needs_fork
class TestProcessBackendContinuity:
    """Forked scan workers' spans are shipped home and grafted."""

    @pytest.fixture(scope="class")
    def traced(self, dataset, config):
        tracer = Tracer()
        cfg = config.with_(scan_workers=4, scan_backend="process")
        result = CMPSBuilder(cfg, tracer=tracer).build(dataset)
        return tracer, result

    def test_bit_identical_to_untraced(self, traced, dataset, config):
        _, result = traced
        cfg = config.with_(scan_workers=4, scan_backend="process")
        plain = CMPSBuilder(cfg).build(dataset)
        assert tree_to_json(plain.tree) == tree_to_json(result.tree)

    def test_worker_spans_carry_child_pids(self, traced):
        import os

        tracer, _ = traced
        batches = [sp for sp in tracer.spans() if sp.name == "chunk_batch"]
        assert batches
        pids = {sp.attrs["pid"] for sp in batches}
        assert os.getpid() not in pids

    def test_worker_spans_graft_under_scan_spans(self, traced):
        tracer, _ = traced
        by_id = {sp.span_id: sp for sp in tracer.spans()}
        for sp in tracer.spans():
            if sp.name == "chunk_batch":
                assert by_id[sp.parent_id].name == "scan"
            if sp.name == "kernel":
                assert by_id[sp.parent_id].name == "chunk_batch"

    def test_kernel_spans_shipped_when_native(self, traced):
        from repro.core import native_scan

        tracer, _ = traced
        kernels = [sp for sp in tracer.spans() if sp.name == "kernel"]
        if native_scan.available():
            assert kernels
            for sp in kernels:
                assert sp.attrs["calls"] > 0
        else:
            assert kernels == []

    def test_cross_check_consistent(self, traced):
        tracer, result = traced
        summary = summarize_trace(tracer.spans())
        assert summary.consistent
        (build,) = summary.builds
        assert build.counted_scans == result.stats.io.scans
        # Every chunk_batch landed under a worker pid bucket.
        n_batches = sum(
            1 for sp in tracer.spans() if sp.name == "chunk_batch"
        )
        assert sum(build.worker_batches_per_pid.values()) == n_batches

    def test_structurally_equivalent_to_thread_backend(self, dataset, config):
        def shape(backend):
            tracer = Tracer()
            cfg = config.with_(scan_workers=4, scan_backend=backend)
            CMPSBuilder(cfg, tracer=tracer).build(dataset)
            names = {}
            for sp in tracer.spans():
                if sp.name != "kernel":  # kernel spans need native counts
                    names[sp.name] = names.get(sp.name, 0) + 1
            return names

        assert shape("thread") == shape("process")

    def test_jsonl_round_trip_keeps_graft(self, traced, tmp_path):
        tracer, _ = traced
        path = tmp_path / "proc_trace.jsonl"
        tracer.write_jsonl(str(path))
        loaded = load_trace_jsonl(str(path))
        assert summarize_trace(loaded).consistent
