"""Tests for the simulated-disk layer (pager + metrics)."""

import numpy as np
import pytest

from repro.config import BuilderConfig
from repro.core.cmp_s import CMPSBuilder
from repro.data.synthetic import generate_agrawal
from repro.io.metrics import BuildStats, CostModel, IOStats, MemoryTracker, ServingStats
from repro.io.pager import PagedTable, ScanChunk


def make_table(n=1000, page_records=100, pages_per_chunk=2, stats=None):
    rng = np.random.default_rng(0)
    X = rng.normal(size=(n, 3))
    y = rng.integers(0, 2, n)
    return (
        PagedTable(X, y, stats=stats, page_records=page_records, pages_per_chunk=pages_per_chunk),
        X,
        y,
    )


class TestPagedTable:
    def test_scan_yields_everything_in_order(self):
        table, X, y = make_table()
        chunks = list(table.scan())
        np.testing.assert_array_equal(np.concatenate([c.X for c in chunks]), X)
        np.testing.assert_array_equal(np.concatenate([c.y for c in chunks]), y)
        starts = [c.start for c in chunks]
        assert starts == sorted(starts)

    def test_chunk_rids(self):
        table, __, __ = make_table(n=450, page_records=100, pages_per_chunk=1)
        for chunk in table.scan():
            np.testing.assert_array_equal(chunk.rids, np.arange(chunk.start, chunk.stop))

    def test_scan_accounting(self):
        stats = IOStats()
        table, __, __ = make_table(n=1050, page_records=100, stats=stats)
        list(table.scan())
        assert stats.scans == 1
        assert stats.pages_read == 11  # ceil(1050 / 100)
        assert stats.records_read == 1050
        list(table.scan())
        assert stats.scans == 2
        assert stats.pages_read == 22

    def test_n_pages(self):
        table, __, __ = make_table(n=1001, page_records=100)
        assert table.n_pages == 11

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            PagedTable(rng.normal(size=10), rng.integers(0, 2, 10))
        with pytest.raises(ValueError, match="same number"):
            PagedTable(rng.normal(size=(10, 2)), rng.integers(0, 2, 9))
        with pytest.raises(ValueError, match="positive"):
            PagedTable(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), page_records=0)


class TestIOStats:
    def test_counters(self):
        s = IOStats()
        s.begin_scan()
        s.count_pages(3, 300)
        s.count_aux_read(50)
        s.count_aux_write(20)
        s.count_seek(2)
        s.count_retry(4.0)
        snap = s.snapshot()
        assert snap == {
            "scans": 1,
            "pages_read": 3,
            "records_read": 300,
            "aux_records_read": 50,
            "aux_records_written": 20,
            "random_seeks": 2,
            "read_retries": 1,
            "backoff_ms": 4.0,
        }

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            IOStats().count_pages(-1, 0)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda s: s.count_pages(2, -1),
            lambda s: s.count_aux_read(-1),
            lambda s: s.count_aux_write(-1),
            lambda s: s.count_nid_swap(-1),
            lambda s: s.count_seek(-1),
            lambda s: s.count_retry(-0.5),
            lambda s: s.merge_counter_delta({"scans": 1, "pages_read": -1}),
        ],
    )
    def test_every_mutator_rejects_negative_atomically(self, mutate):
        s = IOStats()
        s.begin_scan()
        s.count_pages(3, 300)
        before = s.snapshot()
        with pytest.raises(ValueError):
            mutate(s)
        assert s.snapshot() == before


class TestDeclaredCounters:
    """``count`` validates against the block's one counter declaration."""

    @pytest.mark.parametrize(
        "block_cls, name",
        [(IOStats, name) for name in IOStats.COUNTERS]
        + [(ServingStats, name) for name in ServingStats.COUNTERS],
    )
    def test_negative_count_rejected_and_snapshot_unchanged(self, block_cls, name):
        block = block_cls()
        block.count(name, 2)
        before = block.snapshot()
        with pytest.raises(ValueError):
            block.count(name, -1)
        assert block.snapshot() == before
        assert block.snapshot()[name] == 2

    @pytest.mark.parametrize("name", ["max_batch", "latency", "no_such_counter"])
    def test_undeclared_name_rejected(self, name):
        block = ServingStats()
        before = block.snapshot()
        with pytest.raises(ValueError, match="unknown counter"):
            block.count(name)
        assert block.snapshot() == before


class TestMemoryTracker:
    def test_peak_tracks_total(self):
        m = MemoryTracker()
        m.allocate("a", 100)
        m.allocate("b", 50)
        assert m.peak == 150
        m.release("a")
        assert m.current == 50
        m.allocate("c", 60)
        assert m.peak == 150  # 110 < 150

    def test_reallocate_replaces(self):
        m = MemoryTracker()
        m.allocate("a", 100)
        m.allocate("a", 30)
        assert m.current == 30

    def test_release_prefix(self):
        m = MemoryTracker()
        m.allocate("hist/1", 10)
        m.allocate("hist/2", 20)
        m.allocate("buf/1", 5)
        m.release_prefix("hist/")
        assert m.current == 5

    def test_release_idempotent(self):
        m = MemoryTracker()
        m.release("nothing")
        assert m.current == 0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            MemoryTracker().allocate("x", -1)


class TestCostModel:
    def test_simulated_time_components(self):
        s = IOStats()
        s.count_pages(10, 1000)
        s.count_seek(2)
        s.count_aux_read(500)
        model = CostModel(seq_page_ms=5.0, seek_ms=10.0, cpu_record_us=15.0, aux_record_us=8.0)
        expected = 10 * 5.0 + 2 * 10.0 + 1000 * 15.0 / 1000 + 500 * 8.0 / 1000
        assert model.simulated_ms(s) == pytest.approx(expected)

    def test_scans_dominate(self):
        # A full scan must cost far more than per-level CPU bookkeeping.
        s = IOStats()
        s.count_pages(500, 100_000)
        io_time = CostModel().simulated_ms(s)
        s2 = IOStats()
        s2.count_aux_read(100_000)
        aux_time = CostModel().simulated_ms(s2)
        assert io_time > 3 * aux_time


class TestBuildStats:
    def test_summary_keys(self):
        stats = BuildStats()
        stats.io.begin_scan()
        stats.io.count_pages(1, 10)
        summary = stats.summary()
        assert summary["scans"] == 1
        assert "simulated_ms" in summary
        assert "peak_memory_bytes" in summary

    def test_prediction_accuracy(self):
        stats = BuildStats()
        assert stats.prediction_accuracy == 0.0
        stats.predictions_made = 4
        stats.predictions_correct = 3
        assert stats.prediction_accuracy == 0.75

    def test_stopwatch(self):
        # TreeBuilder.build times every build into wall_seconds.
        data = generate_agrawal("F2", 500, seed=0)
        result = CMPSBuilder(BuilderConfig(max_depth=3)).build(data)
        assert result.stats.wall_seconds > 0


class TestCostModelAccounting:
    def test_backoff_added_verbatim(self):
        s = IOStats()
        s.count_pages(10, 1000)
        base = CostModel().simulated_ms(s)
        s.count_retry(25.0)
        s.count_retry(50.0)
        assert CostModel().simulated_ms(s) == pytest.approx(base + 75.0)

    def test_workers_divide_cpu_only(self):
        s = IOStats()
        s.count_pages(10, 10_000)
        s.count_seek(3)
        s.count_aux_read(2_000)
        s.count_retry(40.0)
        model = CostModel(
            seq_page_ms=5.0, seek_ms=10.0, cpu_record_us=15.0, aux_record_us=8.0
        )
        serial = model.simulated_ms(s, scan_workers=1)
        quad = model.simulated_ms(s, scan_workers=4)
        cpu_serial = 10_000 * 15.0 / 1000.0
        # Only the CPU charge shrinks; I/O, aux and backoff stay serial.
        assert serial - quad == pytest.approx(cpu_serial * (1 - 1 / 4))
        fixed = 10 * 5.0 + 3 * 10.0 + 2_000 * 8.0 / 1000.0 + 40.0
        assert quad == pytest.approx(fixed + cpu_serial / 4)

    def test_workers_floor_at_one(self):
        s = IOStats()
        s.count_pages(1, 100)
        assert CostModel().simulated_ms(s, scan_workers=0) == pytest.approx(
            CostModel().simulated_ms(s, scan_workers=1)
        )


class TestMemoryTrackerThreadSafety:
    def test_concurrent_allocate_release_conserves_total(self):
        import threading

        tracker = MemoryTracker()

        def churn(worker: int):
            for i in range(500):
                tracker.allocate(f"w{worker}/a{i}", 64)
                tracker.release(f"w{worker}/a{i}")
            tracker.allocate(f"w{worker}/kept", 1000)

        threads = [threading.Thread(target=churn, args=(w,)) for w in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # Lost updates under a racy += would leave current != sum(live).
        assert tracker.current == 4 * 1000
        assert tracker.current == sum(tracker.live_allocations().values())
        assert tracker.peak >= tracker.current

    def test_concurrent_release_prefix(self):
        import threading

        tracker = MemoryTracker()
        for w in range(4):
            for i in range(100):
                tracker.allocate(f"w{w}/a{i}", 8)

        threads = [
            threading.Thread(target=tracker.release_prefix, args=(f"w{w}/",))
            for w in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert tracker.current == 0
        assert tracker.live_allocations() == {}


class TestBuildStatsPhase:
    def test_phase_accumulates(self):
        stats = BuildStats()
        with stats.phase("scan"):
            pass
        with stats.phase("scan"):
            pass
        with stats.phase("resolve"):
            pass
        assert set(stats.phase_seconds) == {"scan", "resolve"}
        assert stats.phase_seconds["scan"] >= 0.0

    def test_phase_records_elapsed_on_error(self):
        stats = BuildStats()
        with pytest.raises(RuntimeError):
            with stats.phase("scan"):
                raise RuntimeError("boom")
        assert "scan" in stats.phase_seconds

    def test_phase_concurrent_entries_all_counted(self):
        import threading
        import time

        stats = BuildStats()
        start = threading.Barrier(4)

        def work():
            start.wait()
            for __ in range(5):
                with stats.phase("scan"):
                    time.sleep(0.002)

        threads = [threading.Thread(target=work) for __ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        # 4 threads x 5 entries x ~2ms each: a racy read-modify-write on
        # the dict would drop whole entries and land far below the floor.
        assert stats.phase_seconds["scan"] >= 4 * 5 * 0.002 * 0.5
