"""Tests for repro.obs.export: Prometheus text, JSON routing, stats adapters."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.io.metrics import BuildStats, IOStats, ServingStats
from repro.obs.export import (
    record_build_stats,
    record_io_stats,
    record_serving_stats,
    to_prometheus,
    write_metrics,
)
from repro.obs.metrics import MetricsRegistry

GOLDEN = Path(__file__).parent / "data" / "golden_metrics.prom"
DATA = Path(__file__).parent / "data"
STATS_GOLDEN = DATA / "golden_stats.prom"


def _stats_registry() -> MetricsRegistry:
    """Every stats adapter over fixed blocks with every counter non-zero."""
    io = IOStats()
    io.begin_scan()
    io.count_pages(3, 250)
    io.count_aux_read(7)
    io.count_aux_write(5)
    io.count_nid_swap(11)
    io.count_seek(2)
    io.count_retry(12.5)

    build = BuildStats()
    build.io.begin_scan()
    build.io.begin_scan()
    build.io.count_pages(8, 1000)
    build.io.count_aux_read(40)
    build.io.count_aux_write(30)
    build.io.count_seek(4)
    build.io.count_retry(2.25)
    build.memory.allocate("hist/x", 4096)
    build.wall_seconds = 1.75
    build.levels_built = 3
    build.nodes_created = 9
    build.scan_workers = 2
    build.parallel_batches = 6
    build.buffer_overflow_rescans = 1
    build.native_kernel_calls = 42
    build.phase_seconds["scan"] = 0.5
    build.phase_seconds["resolve"] = 0.25

    serving = ServingStats()
    serving.count("requests", 12)
    serving.count("shed", 2)
    serving.count("timeouts", 3)
    serving.count("breaker_rejections", 4)
    serving.count("fallbacks", 5)
    serving.count("shard_retries", 6)
    serving.observe_batch(10, 0.002)
    serving.observe_batch(20, 0.0375)

    reg = MetricsRegistry()
    record_io_stats(reg, io, {"table": "agrawal"})
    record_build_stats(reg, build, {"builder": "CMP-S"})
    record_serving_stats(reg, serving, {"model": "m1"})
    return reg


def _golden_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("demo_requests_total", "Requests served.", {"path": "/predict"}).inc(3)
    reg.counter("demo_requests_total", labels={"path": "/health"}).inc()
    reg.gauge("demo_temperature", "Current temperature.").set(21.5)
    h = reg.histogram(
        "demo_latency_seconds",
        "Request latency.",
        {"service": "cmp"},
        bounds=(0.001, 0.01, 0.1),
    )
    for v in (0.0005, 0.002, 0.009, 1.5):
        h.observe(v)
    reg.gauge("demo_weird_label", "Label escaping.", {"text": 'a"b\\c\nd'}).set(1)
    return reg


class TestPrometheusText:
    def test_golden_file(self):
        # The exposition format is an external contract: byte-for-byte.
        assert to_prometheus(_golden_registry()) == GOLDEN.read_text()

    def test_empty_registry(self):
        assert to_prometheus(MetricsRegistry()) == ""

    def test_integer_compaction(self):
        reg = MetricsRegistry()
        reg.counter("n_total").inc(5.0)
        reg.gauge("g").set(2.25)
        text = to_prometheus(reg)
        assert "n_total 5\n" in text
        assert "g 2.25\n" in text

    def test_histogram_buckets_cumulative_and_inf(self):
        reg = MetricsRegistry()
        h = reg.histogram("h_seconds", bounds=(1.0, 2.0))
        for v in (0.5, 1.5, 99.0):
            h.observe(v)
        text = to_prometheus(reg)
        assert 'h_seconds_bucket{le="1"} 1' in text
        assert 'h_seconds_bucket{le="2"} 2' in text
        assert 'h_seconds_bucket{le="+Inf"} 3' in text
        assert "h_seconds_count 3" in text


class TestEscaping:
    """One golden file per escape character, label values and HELP text.

    The exposition format escapes ``\\``, ``"`` and newline in label
    values but only ``\\`` and newline in HELP text — a raw ``"`` in
    HELP is legal and must pass through unescaped.
    """

    @pytest.mark.parametrize(
        "golden_name, value",
        [
            ("golden_escape_backslash.prom", "dir\\path"),
            ("golden_escape_quote.prom", 'say "hi"'),
            ("golden_escape_newline.prom", "line1\nline2"),
        ],
    )
    def test_label_value_escape_golden(self, golden_name, value):
        reg = MetricsRegistry()
        reg.gauge("demo_escape", "Escape demo.", {"text": value}).set(1)
        assert to_prometheus(reg) == (DATA / golden_name).read_text()

    def test_help_text_escape_golden(self):
        reg = MetricsRegistry()
        reg.gauge(
            "demo_help", 'Path "C:\\tmp"\nsecond line.', {"k": "v"}
        ).set(1)
        assert to_prometheus(reg) == (DATA / "golden_escape_help.prom").read_text()

    def test_help_newline_never_splits_line(self):
        reg = MetricsRegistry()
        reg.counter("c_total", "before\nafter").inc()
        text = to_prometheus(reg)
        assert "# HELP c_total before\\nafter\n" in text
        # Every line must still be a comment or a sample.
        for line in text.splitlines():
            assert line.startswith("#") or line.startswith("c_total")

    def test_label_round_trips_all_escapes_together(self):
        reg = MetricsRegistry()
        reg.gauge("g", labels={"text": 'a"b\\c\nd'}).set(1)
        assert 'text="a\\"b\\\\c\\nd"' in to_prometheus(reg)


class TestWriteMetrics:
    def test_prom_path(self, tmp_path):
        path = tmp_path / "out.prom"
        write_metrics(_golden_registry(), str(path))
        assert path.read_text() == GOLDEN.read_text()

    def test_json_path(self, tmp_path):
        path = tmp_path / "out.json"
        write_metrics(_golden_registry(), str(path))
        data = json.loads(path.read_text())
        assert data["demo_temperature"]["values"][0]["value"] == 21.5
        assert data["demo_latency_seconds"]["type"] == "histogram"

    def test_file_object_gets_prometheus(self, tmp_path):
        import io

        buf = io.StringIO()
        write_metrics(_golden_registry(), buf)
        assert buf.getvalue() == GOLDEN.read_text()


class TestAdapters:
    def test_stats_golden_file(self):
        # Metric names, HELP text, order and values of every adapter are
        # part of the exposition contract, pinned byte for byte.
        assert to_prometheus(_stats_registry()) == STATS_GOLDEN.read_text()

    def test_record_io_stats(self):
        io_stats = IOStats()
        io_stats.begin_scan()
        io_stats.count_pages(4, 100)
        io_stats.count_retry(12.5)
        reg = MetricsRegistry()
        record_io_stats(reg, io_stats, {"builder": "CMP"})
        labels = {"builder": "CMP"}
        assert reg.counter("cmp_io_scans_total", labels=labels).value == 1
        assert reg.counter("cmp_io_pages_read_total", labels=labels).value == 4
        assert reg.counter("cmp_io_read_retries_total", labels=labels).value == 1
        assert reg.counter("cmp_io_backoff_ms_total", labels=labels).value == 12.5

    def test_record_build_stats_accumulates(self):
        stats = BuildStats()
        stats.io.begin_scan()
        stats.wall_seconds = 1.5
        stats.nodes_created = 9
        stats.levels_built = 3
        stats.memory.allocate("x", 1000)
        stats.phase_seconds["scan"] = 0.5
        reg = MetricsRegistry()
        record_build_stats(reg, stats)
        record_build_stats(reg, stats)
        # Counters accumulate across builds; gauges reflect the last one.
        assert reg.counter("cmp_build_total").value == 2
        assert reg.counter("cmp_build_wall_seconds_total").value == 3.0
        assert reg.counter("cmp_io_scans_total").value == 2
        assert (
            reg.counter(
                "cmp_build_phase_seconds_total", labels={"phase": "scan"}
            ).value
            == 1.0
        )
        assert reg.gauge("cmp_build_peak_memory_bytes").value == 1000
        assert reg.gauge("cmp_build_nodes").value == 9

    def test_record_serving_stats_merges_latency(self):
        stats = ServingStats()
        stats.count("requests", 5)
        stats.observe_batch(10, 0.002)
        stats.observe_batch(20, 0.004)
        reg = MetricsRegistry()
        record_serving_stats(reg, stats, {"model": "abc"})
        labels = {"model": "abc"}
        assert reg.counter("cmp_serve_requests_total", labels=labels).value == 5
        assert reg.counter("cmp_serve_batches_total", labels=labels).value == 2
        assert reg.counter("cmp_serve_records_total", labels=labels).value == 30
        hist = reg.histogram(
            "cmp_serve_batch_latency_seconds",
            labels=labels,
            bounds=stats.latency.bounds,
        )
        assert hist.count == 2
        assert hist.sum == pytest.approx(0.006)
        # Registry quantiles agree with the snapshot's percentiles.
        snap = stats.snapshot()
        assert 1000.0 * hist.quantile(0.5) == pytest.approx(snap["p50_latency_ms"])
