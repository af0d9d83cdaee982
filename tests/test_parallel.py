"""Tests for the chunk-parallel scan engine and its merge guarantees.

* **merge equivalence** — a level's parts (class/category histograms,
  histogram matrices, axis extrema, matrix sets) and record buffers
  hold identical state whether a batch stream is routed in one pass or
  partitioned arbitrarily into zeroed arena deltas and merged;
* **the engine** — contiguous chunk partitioning, chunk-ordered merges,
  error propagation and worker teardown on both backends, delta
  pickling, and one kernel plan per level arena.

That whole builds are bit-identical across backends, worker counts,
kernels, fault injection and checkpoint/resume is the conformance
matrix's claim, checked whole in ``tests/test_conformance.py``; the
bit-identity classes here check named slices of the same runs.
"""

import multiprocessing
import pickle
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import BuilderConfig
from repro.core import native_scan
from repro.core import parallel as parallel_mod
from repro.core.builder import (
    PartState,
    PendingScan,
    PendingSplit,
    RecordBuffer,
    zone_boundaries,
)
from repro.core.cmp_full import CMPBuilder
from repro.core.cmp_s import CMPSBuilder
from repro.core.splits import CategoricalSplit, NumericSplit
from repro.core.parallel import (
    ScanEngine,
    partition_chunks,
    process_backend_available,
)
from repro.core.tree import Node
from repro.data.schema import Schema, categorical, continuous
from repro.data.synthetic import generate_agrawal
from repro.ensemble.boosting import _ChunkSums
from repro.io.metrics import MemoryTracker
from repro.io.pager import ScanChunk
from repro.verify.conformance import (
    CASES_BY_NAME,
    PROCESS4,
    RESUMES,
    SERIAL,
    THREAD4,
    UNEVEN,
)
from repro.verify.differential import tree_signature

CFG = BuilderConfig(n_intervals=16, max_depth=4, min_records=30)


needs_fork = pytest.mark.skipif(
    not process_backend_available(), reason="fork start method unavailable"
)


@pytest.fixture(scope="module", params=["F2", "F7"])
def data(request):
    """The Agrawal function the module's builds learn."""
    return request.param


@pytest.fixture(scope="module")
def dataset(data):
    return generate_agrawal(data, 3_000, seed=5)


# ---------------------------------------------------------------------------
# partition_chunks
# ---------------------------------------------------------------------------


class TestPartitionChunks:
    def test_contiguous_and_complete(self):
        starts = list(range(0, 1000, 100))
        slices = partition_chunks(starts, 3)
        assert [s for sl in slices for s in sl] == starts
        assert len(slices) == 3
        # Balanced: sizes differ by at most one, largest first.
        sizes = [len(sl) for sl in slices]
        assert max(sizes) - min(sizes) <= 1
        assert sizes == sorted(sizes, reverse=True)

    def test_more_workers_than_chunks(self):
        slices = partition_chunks([0, 64], 8)
        assert slices == [[0], [64]]

    def test_empty(self):
        assert partition_chunks([], 4) == []

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            partition_chunks([0], 0)

    @given(
        n=st.integers(min_value=0, max_value=200),
        workers=st.integers(min_value=1, max_value=16),
    )
    def test_property_order_preserved(self, n, workers):
        starts = list(range(n))
        slices = partition_chunks(starts, workers)
        assert [s for sl in slices for s in sl] == starts
        assert len(slices) == min(workers, n)


# ---------------------------------------------------------------------------
# Merge equivalence: chunked-and-merged == single pass
# ---------------------------------------------------------------------------


def _partition(n: int, cuts: list[int]) -> list[slice]:
    """Slices covering [0, n) with the given (possibly ragged) cut points."""
    points = sorted({c % (n + 1) for c in cuts} | {0, n})
    return [slice(a, b) for a, b in zip(points, points[1:])]


batches = st.lists(st.integers(min_value=0, max_value=10_000), max_size=6)


SCHEMAS = {
    "cont": Schema((continuous("x"), continuous("y")), ("n", "p")),
    "cat": Schema(
        (categorical("c", ("a", "b", "d")), categorical("e", ("u", "v"))), ("n", "p")
    ),
    "mixed": Schema(
        (continuous("x"), continuous("y"), categorical("c", ("a", "b"))), ("n", "p")
    ),
}


def level_pendings(seed, schema, kind):
    """A level of exact and estimated pendings over slots 0..5, each with
    two parts of ``kind``: ``cmp-s`` histograms, ``matrix`` sets, or
    ``clouds`` (exact splits only; some parts count classes only)."""
    rng = np.random.default_rng(seed)
    cont = schema.continuous_indices()
    cats = [j for j in range(schema.n_attributes) if j not in cont]
    edges = {j: np.sort(rng.uniform(0, 10, int(rng.integers(0, 5)))) for j in cont}
    next_slot, pendings = 6, {}
    for slot in range(6):
        if cont and kind != "clouds" and rng.random() < 0.5:
            lo = float(rng.uniform(0, 9))
            alive = [(lo, lo + 1.0)]
            fields = dict(
                attr=cont[int(rng.integers(0, len(cont)))],
                alive_bounds=alive,
                zone_bounds=zone_boundaries(alive),
            )
        elif cont and (not cats or rng.random() < 0.5):
            fields = dict(exact_split=NumericSplit(cont[0], float(rng.uniform(0, 10))))
        else:
            k = schema.attributes[cats[0]].cardinality
            mask = tuple(bool(b) for b in rng.integers(0, 2, k))
            fields = dict(exact_split=CategoricalSplit(cats[0], mask))
        parts = []
        for __ in range(2):
            grids = None if kind == "clouds" and rng.random() < 0.5 else edges
            x_attr = cont[-1] if kind == "matrix" else None
            parts.append(PartState.planned(next_slot, schema, grids, x_attr))
            next_slot += 1
        pendings[slot] = PendingSplit(
            node=Node(slot, 1, np.zeros(2)), parent_slot=slot, parts=parts, **fields
        )
    return pendings


def check_delta_merge(kind, schema_name, seed, cuts, workers=2, weighted=False, pickled=False):
    """Split chunks routed into ``workers`` zeroed deltas, merged in chunk
    order (through a pickle round trip, as forked workers ship them,
    when ``pickled``), equal one serial route: arena, buffers and ``nid``."""
    schema = SCHEMAS[schema_name]
    rng = np.random.default_rng(seed + 1)
    n = 300
    X = np.column_stack(
        [
            rng.uniform(0, 10, n) if a.is_continuous else rng.integers(0, a.cardinality, n)
            for a in schema.attributes
        ]
    ).astype(np.float64)
    y = rng.integers(0, 2, n)
    nid = rng.integers(0, 6, n)
    weights = None
    if weighted:
        weights = rng.integers(0, 4, n).astype(np.float64)
        nid[weights == 0] = -1
    chunks = [ScanChunk(sl.start, X[sl], y[sl]) for sl in _partition(n, cuts)]
    serial = PendingScan(nid.copy(), weights, level_pendings(seed, schema, kind))
    for chunk in chunks:
        serial.route(chunk)
    merged = PendingScan(nid.copy(), weights, level_pendings(seed, schema, kind))
    for group in partition_chunks(list(range(len(chunks))), workers):
        delta = merged.scan_delta()
        for i in group:
            delta.route(chunks[i])
        merged.merge_scan_delta(pickle.loads(pickle.dumps(delta)) if pickled else delta)
    np.testing.assert_array_equal(merged.nid, serial.nid)
    for got, want in zip(merged.arena.arrays(), serial.arena.arrays(), strict=True):
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)
    for p, q in zip(merged.pendings.values(), serial.pendings.values()):
        for part, qart in zip(p.parts, q.parts):
            np.testing.assert_array_equal(part.class_counts, qart.class_counts)
        for got, want in zip(p.buffer.concatenated(), q.buffer.concatenated()):
            np.testing.assert_array_equal(got, want)


class TestMergeEquivalence:
    """Per-accumulator entry points into :func:`check_delta_merge`: each
    routes one kind of part through zeroed arena deltas."""

    @given(seed=st.integers(0, 2**16), cuts=batches)
    @settings(max_examples=25, deadline=None)
    def test_class_histogram(self, seed, cuts):
        check_delta_merge("cmp-s", "cont", seed, cuts)

    @given(seed=st.integers(0, 2**16), cuts=batches)
    @settings(max_examples=25, deadline=None)
    def test_category_histogram(self, seed, cuts):
        check_delta_merge("cmp-s", "cat", seed, cuts)

    @given(seed=st.integers(0, 2**16), cuts=batches)
    @settings(max_examples=25, deadline=None)
    def test_axis_stats(self, seed, cuts):
        check_delta_merge("matrix", "cont", seed, cuts, workers=3, pickled=True)

    @given(seed=st.integers(0, 2**16), cuts=batches)
    @settings(max_examples=25, deadline=None)
    def test_histogram_matrix(self, seed, cuts):
        check_delta_merge("matrix", "cont", seed, cuts)

    @given(seed=st.integers(0, 2**16), cuts=batches)
    @settings(max_examples=25, deadline=None)
    def test_matrix_set(self, seed, cuts):
        check_delta_merge("matrix", "mixed", seed, cuts)

    @given(seed=st.integers(0, 2**16), cuts=batches, weighted=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_part_state(self, seed, cuts, weighted):
        check_delta_merge("cmp-s", "mixed", seed, cuts, weighted=weighted)


class TestArenaDeltaMerge:
    """One arena-level property: any number of zeroed deltas, merged in
    chunk order, equal one serial route — for CMP-S parts (weighted or
    not), CMP-B/CMP matrix parts and CLOUDS parts."""

    @given(
        kind=st.sampled_from(["cmp-s", "cmp-s-weighted", "matrix", "clouds"]),
        schema_name=st.sampled_from(sorted(SCHEMAS)),
        seed=st.integers(0, 2**16),
        cuts=batches,
        workers=st.integers(1, 4),
        pickled=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_deltas_merge_to_one_serial_route(
        self, kind, schema_name, seed, cuts, workers, pickled
    ):
        if kind == "matrix" and schema_name == "cat":
            schema_name = "mixed"  # a matrix set needs a continuous X axis
        check_delta_merge(
            kind.removesuffix("-weighted"), schema_name, seed, cuts, workers,
            weighted=kind.endswith("weighted"), pickled=pickled,
        )


class TestRecordBufferExtend:
    def _batch(self, k, n=10):
        X = np.full((n, 2), float(k))
        y = np.full(n, k % 2, dtype=np.int64)
        rids = np.arange(k * n, (k + 1) * n, dtype=np.int64)
        return X, y, rids

    def test_concatenation_order(self):
        serial = RecordBuffer()
        merged = RecordBuffer()
        workers = [RecordBuffer(), RecordBuffer()]
        for k in range(4):
            serial.append(*self._batch(k))
            workers[k // 2].append(*self._batch(k))
        for w in workers:
            merged.extend_from(w)
        for a, b in zip(serial.concatenated(), merged.concatenated()):
            np.testing.assert_array_equal(a, b)
        assert merged.n_records == serial.n_records

    def test_overflow_latches_from_worker(self):
        merged = RecordBuffer(budget_bytes=1)
        worker = RecordBuffer(budget_bytes=1)
        worker.append(*self._batch(0))
        assert worker.overflowed
        merged.extend_from(worker)
        assert merged.overflowed
        assert merged.n_records == 10
        assert not merged.X_chunks

    def test_overflow_latches_on_total(self):
        # Each worker fits its budget alone; the merged total does not —
        # exactly when a serial pass would have overflowed too.
        budget = 400
        workers = [RecordBuffer(budget_bytes=budget) for _ in range(2)]
        for k, w in enumerate(workers):
            w.append(*self._batch(k, n=2))
            assert not w.overflowed
        merged = RecordBuffer(budget_bytes=120)
        serial = RecordBuffer(budget_bytes=120)
        for k in range(2):
            serial.append(*self._batch(k, n=2))
        for w in workers:
            merged.extend_from(w)
        assert serial.overflowed
        assert merged.overflowed

    def test_records_counted_after_overflow(self):
        merged = RecordBuffer(budget_bytes=1)
        w1 = RecordBuffer(budget_bytes=1)
        w1.append(*self._batch(0))
        merged.extend_from(w1)
        w2 = RecordBuffer(budget_bytes=1)
        w2.append(*self._batch(1))
        merged.extend_from(w2)
        assert merged.n_records == 20


# ---------------------------------------------------------------------------
# ScanEngine behaviour
# ---------------------------------------------------------------------------


class _FakeStats:
    def __init__(self):
        self.scans = 0
        self.merged_deltas = []

    def begin_scan(self):
        self.scans += 1

    def snapshot(self):
        return {"scans": self.scans}

    def merge_counter_delta(self, delta):
        self.merged_deltas.append(dict(delta))
        self.scans += delta.get("scans", 0)


class _FakeTable:
    """Minimal chunked table: chunk ``i`` holds the one record ``i``."""

    def __init__(self, n_chunks):
        self.stats = _FakeStats()
        self._n = n_chunks

    def chunk_starts(self):
        return range(self._n)

    def read_chunk(self, start):
        return ScanChunk(start, np.zeros((1, 1)), np.zeros(1, dtype=np.int64))

    def scan(self):
        self.stats.begin_scan()
        for start in self.chunk_starts():
            yield self.read_chunk(start)


class _Starts:
    """A scan target that records the chunk starts routed into it.

    Routing chunk ``poison`` raises, and so does every merge when
    ``merge_fails``; ``merges`` counts the deltas merged in.
    """

    def __init__(self, poison=None, merge_fails=False):
        self.poison = poison
        self.merge_fails = merge_fails
        self.starts = []
        self.merges = 0

    def route(self, chunk):
        if chunk.start == self.poison:
            raise RuntimeError("poisoned")
        self.starts.append(chunk.start)

    def scan_delta(self):
        return _Starts(self.poison)

    def merge_scan_delta(self, delta):
        if self.merge_fails:
            raise RuntimeError("merge blew up")
        self.merges += 1
        self.starts.extend(delta.starts)

    def delta_nbytes(self):
        return 64


class TestScanEngine:
    def test_serial_streams_into_live(self):
        table = _FakeTable(5)
        target = _Starts()
        with ScanEngine(1) as engine:
            assert not engine.parallel
            engine.scan(table, [target])
        assert target.starts == [0, 1, 2, 3, 4]
        assert target.merges == 0  # the serial path never merges
        assert table.stats.scans == 1

    def test_parallel_merges_in_chunk_order(self):
        table = _FakeTable(10)
        targets = [_Starts(), _Starts()]
        memory = MemoryTracker()
        with ScanEngine(3) as engine:
            assert engine.parallel
            engine.scan(table, targets, memory=memory)
            assert engine.batches_dispatched == 3
        for target in targets:
            assert target.starts == list(range(10))
            assert target.merges == 3
        assert table.stats.scans == 1
        # Three workers' deltas of both targets, released after the pass.
        assert memory.peak == 3 * 2 * 64
        assert memory.current == 0

    def test_worker_error_propagates(self):
        with ScanEngine(2) as engine:
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.scan(_FakeTable(4), [_Starts(poison=2)])

    def test_invalid_workers(self):
        with pytest.raises(ValueError, match="workers"):
            ScanEngine(0)

    def test_invalid_backend(self):
        with pytest.raises(ValueError, match="backend"):
            ScanEngine(2, backend="mpi")


@needs_fork
class TestScanEngineProcess:
    def test_parallel_merges_in_chunk_order(self):
        table = _FakeTable(10)
        target = _Starts()
        with ScanEngine(3, backend="process") as engine:
            assert engine.effective_backend == "process"
            engine.scan(table, [target])
            assert engine.batches_dispatched == 3
        assert target.starts == list(range(10))
        assert target.merges == 3
        assert table.stats.scans == 1
        # Every worker handed an IO-counter delta back to the parent.
        assert len(table.stats.merged_deltas) == 3

    def test_serial_path_ignores_backend(self):
        target = _Starts()
        with ScanEngine(1, backend="process") as engine:
            assert not engine.parallel
            engine.scan(_FakeTable(4), [target])
        assert target.starts == [0, 1, 2, 3]
        assert target.merges == 0

    def test_worker_error_propagates_from_child(self):
        with ScanEngine(2, backend="process") as engine:
            with pytest.raises(RuntimeError, match="poisoned"):
                engine.scan(_FakeTable(4), [_Starts(poison=2)])
        assert parallel_mod._FORK_JOB is None


class TestPoisonedScanTeardown:
    """Regression: a scan whose route or merge raises must not leak workers."""

    def test_thread_pool_torn_down(self):
        engine = ScanEngine(3)
        before = set(threading.enumerate())
        with pytest.raises(RuntimeError, match="poisoned"):
            engine.scan(_FakeTable(6), [_Starts(poison=3)])
        assert engine._pool is None
        leaked = [
            t
            for t in threading.enumerate()
            if t not in before and t.name.startswith("cmp-scan") and t.is_alive()
        ]
        assert leaked == []
        # The engine stays usable: the next scan builds a fresh pool.
        target = _Starts()
        engine.scan(_FakeTable(4), [target])
        assert target.starts == [0, 1, 2, 3]
        engine.close()

    def test_merge_error_tears_down_thread_pool(self):
        engine = ScanEngine(2)
        with pytest.raises(RuntimeError, match="merge blew up"):
            engine.scan(_FakeTable(6), [_Starts(merge_fails=True)])
        assert engine._pool is None

    @needs_fork
    def test_process_pool_torn_down(self):
        engine = ScanEngine(3, backend="process")
        with pytest.raises(RuntimeError, match="poisoned"):
            engine.scan(_FakeTable(6), [_Starts(poison=3)])
        assert parallel_mod._FORK_JOB is None
        # shutdown(wait=True) ran in the engine's finally; give the OS a
        # moment to reap, then require no surviving workers.
        deadline = time.monotonic() + 10.0
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.05)
        assert multiprocessing.active_children() == []


def _pending_scan(n):
    """A solo tree's root pending over an ``n``-record table."""
    schema = Schema((continuous("a"), categorical("c", ("x", "y"))), ("n", "p"))
    part = PartState.planned(0, schema, {0: np.linspace(-1.0, 1.0, 7)})
    root = PendingSplit(node=Node(0, 0, np.zeros(2)), parent_slot=0, parts=[part])
    return PendingScan(np.zeros(n, dtype=np.int64), np.ones(n), {0: root})


def _chunk_sums(n):
    """A boosted level scan's target over an ``n``-record table."""
    grad = np.ones((n, 2))
    return _ChunkSums(
        [(0, 0), (1, 0)],
        np.zeros((n, 2), dtype=np.int64),
        grad,
        grad,
        {0: np.zeros(n, dtype=np.int64)},
        {0: 8},
        [0],
    )


class TestDeltaPickling:
    """A forked worker's delta ships its accumulators, not its routing
    context (``nid``, weights, gradients), so its size does not grow with
    the table."""

    @pytest.mark.parametrize("make", [_pending_scan, _chunk_sums])
    def test_pickled_delta_size_independent_of_table(self, make):
        small, large = (len(pickle.dumps(make(n).scan_delta())) for n in (10, 100_000))
        assert small == large

    @pytest.mark.parametrize("buffered", [False, True])
    def test_pickled_delta_is_arena_arrays_plus_buffers(self, buffered):
        # A delta ships its arena's arrays and its buffers: the rest is a
        # fixed overhead, whether the level has 1 part or 300.
        def overhead(n_parts):
            schema = SCHEMAS["mixed"]
            edges = {0: np.linspace(1.0, 9.0, 5), 1: np.linspace(1.0, 9.0, 3)}
            pendings = {}
            for slot in range(n_parts):
                alive = [(4.0, 5.0)]
                pendings[slot] = PendingSplit(
                    node=Node(slot, 1, np.zeros(2)),
                    parent_slot=slot,
                    parts=[PartState.planned(n_parts + slot, schema, edges)],
                    attr=0,
                    alive_bounds=alive if buffered else [],
                    zone_bounds=zone_boundaries(alive if buffered else []),
                )
            delta = PendingScan(np.zeros(8, dtype=np.int64), None, pendings).scan_delta()
            X = np.full((8, 3), 4.5 if buffered else 1.0)
            X[:, 2] = 0.0
            delta.route(ScanChunk(0, X, np.zeros(8, dtype=np.int64)))
            blob = pickle.dumps(delta)
            assert b"PartState" not in blob and b"PendingSplit" not in blob
            assert len(delta.buffers) == int(buffered)
            arrays = sum(a.nbytes for a in delta.arena.arrays())
            return len(blob) - arrays - len(pickle.dumps(delta.buffers))

        one, many = overhead(1), overhead(300)
        # Only each array's shape and length fields grow, by a few bytes.
        assert abs(many - one) <= 8 * 4


class TestPlansPerBuild:
    """One kernel plan per level arena: a build plans at most one arena
    per level scan and member, plus one zeroed delta per worker and
    scan (built in the forked workers, so not seen here)."""

    @pytest.mark.parametrize("backend", ["serial", "process2"])
    @pytest.mark.parametrize(
        "builder", ["CMP", "CMP-B", "CMP-S", "CLOUDS-SS", "bagged-CMP-S"]
    )
    def test_plans_per_build(self, builder, backend, monkeypatch):
        from repro.eval.experiments import default_config

        if backend == "process2" and not process_backend_available():
            pytest.skip("fork start method unavailable")
        built = []
        init = native_scan.AccumPlan.__init__

        def counted(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(native_scan.AccumPlan, "__init__", counted)
        cfg = default_config()
        if backend == "process2":
            cfg = cfg.with_(scan_workers=2, scan_backend="process")
        members = 3 if builder.startswith("bagged") else 1
        case = CASES_BY_NAME[builder]
        stats = case.make(cfg).build(generate_agrawal("F7", 20_000, seed=1)).stats
        assert stats.shared_level_scans >= 2
        assert len(built) <= stats.shared_level_scans * members
        if native_scan.available() and backend == "serial":
            assert built


# ---------------------------------------------------------------------------
# Builder bit-identity, serial vs parallel: slices of the conformance
# matrix, which tests/test_conformance.py checks whole
# ---------------------------------------------------------------------------

#: The tree builders' conformance cases, by this module's test ids.
BUILDERS = {
    "CMPSBuilder": "CMP-S",
    "CMPBBuilder": "CMP-B",
    "CMPBuilder": "CMP",
    "CloudsBuilder": "CLOUDS-SSE",
    "clouds_ss": "CLOUDS-SS",
}
each_builder = pytest.mark.parametrize(
    "name", list(BUILDERS.values()), ids=list(BUILDERS)
)


class TestParallelBitIdentity:
    @each_builder
    def test_tree_and_io_identical(self, conformance_matrix, data, name):
        conformance_matrix.check(name, data, THREAD4, "thread4/")

    def test_many_worker_counts(self, conformance_matrix, data):
        conformance_matrix.check("CMP", data, UNEVEN, "thread3/")

    def test_phase_timings_recorded(self, dataset):
        result = CMPBuilder(CFG.with_(scan_workers=2)).build(dataset)
        assert {"scan", "resolve"} <= set(result.stats.phase_seconds)
        summary = result.summary
        assert "phase_scan_s" in summary
        assert summary["scan_workers"] == 2

    @each_builder
    def test_identical_under_fault_injection(self, conformance_matrix, data, name):
        conformance_matrix.check(name, data, THREAD4, "thread4 faults")

    def test_overflow_rescan_identical(self, conformance_matrix, data):
        conformance_matrix.check("CMP-S-overflow", data, THREAD4)
        # And the degraded path still matches the unbudgeted tree.
        budgeted = conformance_matrix.built("CMP-S-overflow", data)[1]["native"]
        unbudgeted = conformance_matrix.built("CMP-S", data)[1]["native"]
        assert tree_signature(budgeted.tree) == tree_signature(unbudgeted.tree)


class TestBackendKernelMatrix:
    """Fresh builds over {backend} x {workers} x {kernels on/off}."""

    @each_builder
    def test_signature_matrix(self, conformance_matrix, data, name):
        for engine in (SERIAL, THREAD4, PROCESS4):
            conformance_matrix.check(name, data, engine, f"{engine.label}/")


@needs_fork
class TestProcessBackendBuilds:
    def test_identical_under_fault_injection(self, conformance_matrix, data):
        # Retries fire inside forked children; the retry accounting
        # reaches the parent through the IO-counter deltas.
        conformance_matrix.check("CMP-S", data, PROCESS4, "process4 faults")

    def test_checkpoint_cross_backend_resume(self, conformance_matrix, data):
        """A checkpoint written by a process-backend build resumes
        bit-identically on the thread backend."""
        run = f"{PROCESS4.label}->{THREAD4.label} resume"
        conformance_matrix.check("CMP", data, PROCESS4, run)

    def test_stats_report_backend_and_kernels(self, dataset):
        result = CMPSBuilder(
            CFG.with_(scan_workers=2, scan_backend="process")
        ).build(dataset)
        assert result.stats.scan_backend == "process"
        assert result.summary["scan_backend"] == "process"
        # The parent folds each forked worker's kernel-call delta back
        # in, so the count matches the serial build's.
        serial = CMPSBuilder(CFG).build(dataset)
        assert result.stats.native_kernel_calls == serial.stats.native_kernel_calls


class TestParallelCheckpointResume:
    @pytest.mark.parametrize("resume_workers", [1, 4])
    def test_crash_parallel_resume_any_workers(
        self, conformance_matrix, data, resume_workers
    ):
        """A mid-build checkpoint written by a parallel build resumes
        bit-identically under one worker and under four."""
        crash, resume = next(
            (c, r) for c, r in RESUMES if r.workers == resume_workers
        )
        run = f"{crash.label}->{resume.label} resume"
        conformance_matrix.check("CMP", data, crash, run)


class TestConfig:
    def test_workers_validated(self):
        with pytest.raises(ValueError, match="scan_workers"):
            BuilderConfig(scan_workers=0)

    def test_backend_validated(self):
        with pytest.raises(ValueError, match="scan_backend"):
            BuilderConfig(scan_backend="mpi")

    def test_io_counter_delta_roundtrip(self):
        from repro.io.metrics import IOStats

        stats = IOStats()
        before = stats.snapshot()
        stats.count_pages(3, 700)
        stats.count_aux_read(11)
        delta = {k: v - before[k] for k, v in stats.snapshot().items()}
        other = IOStats()
        other.merge_counter_delta(delta)
        assert other.pages_read == 3
        assert other.records_read == 700
        assert other.aux_records_read == 11
        with pytest.raises(ValueError, match="unknown"):
            other.merge_counter_delta({"not_a_counter": 1})

    def test_simulated_time_divides_cpu_only(self):
        from repro.io.metrics import CostModel, IOStats

        stats = IOStats()
        stats.count_pages(10, 2_000)
        model = CostModel()
        serial = model.simulated_ms(stats)
        parallel = model.simulated_ms(stats, scan_workers=4)
        io_ms = 10 * model.seq_page_ms
        cpu_ms = 2_000 * model.cpu_record_us / 1000.0
        assert serial == pytest.approx(io_ms + cpu_ms)
        assert parallel == pytest.approx(io_ms + cpu_ms / 4)
