"""Tests for the native training kernels (`repro.core.native_scan`).

Three layers:

* **kernel equivalence** — each C kernel reproduces its numpy expression
  bit for bit on adversarial inputs (NaN values, negative category codes,
  strided columns, int32/int64 matrix cubes), and raises what the
  numpy bodies raise: ``ValueError`` on an out-of-range label,
  ``IndexError`` on an out-of-range category code;
* **dispatch discipline** — wrappers decline (returning the caller to the
  numpy path) on dtypes, layouts and value ranges outside the proven
  bit-identity envelope, and honour ``CMP_NO_NATIVE`` / ``force_numpy``;
* **build-level identity** — full CMP builds match with kernels on and
  off (spot-checked here; the backend × kernel matrix lives in
  ``test_conformance.py``), and concurrent first-time compiles from separate
  processes are safe (the satellite compile-race bugfix).
"""

import os
import pickle
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import native_build, native_scan
from repro.core.builder import PartState
from repro.core.histogram import CategoryHistogram, ClassHistogram
from repro.core.arena import LevelArena, cube_dtype
from repro.core.matrix import HistogramMatrix, MatrixSet
from repro.data.discretize import bin_index
from repro.data.schema import Schema, continuous

pytestmark = [
    pytest.mark.skipif(
        native_build.compiler() is None, reason="no C compiler on this machine"
    ),
    # Under CMP_NO_NATIVE the kernels are off by design and the numpy
    # paths are exercised by the whole rest of the suite; the
    # enabled-mode run covers the disabled path explicitly via the
    # subprocess test below.
    pytest.mark.skipif(
        bool(os.environ.get("CMP_NO_NATIVE")),
        reason="native kernels disabled via CMP_NO_NATIVE",
    ),
]

ENV = {**os.environ, "PYTHONPATH": "src"}


def test_kernels_available():
    assert native_scan.available()
    assert native_scan.warm_up()


# ---------------------------------------------------------------------------
# Kernel equivalence vs the numpy expressions
# ---------------------------------------------------------------------------


def fused_fill(hist, X, labels):
    """``hist``'s shape filled as the only histogram of a part laid out
    alone, through the fused kernel (asserted taken: one ``hist_accum``
    or ``cat_accum`` tally)."""
    tally = "hist_accum" if isinstance(hist, ClassHistogram) else "cat_accum"
    before = native_scan.kernel_counts()[tally]
    part = PartState(0, hist.counts.shape[1], {0: hist})
    part.update(X, labels)
    assert native_scan.kernel_counts()[tally] == before + 1
    return part.hists[0]


def numpy_fill(hist, values, labels):
    """``hist`` filled standalone: the one numpy body."""
    hist.update(values, labels)
    return hist


class TestHistAccum:
    """One class histogram filled by the fused kernel against the numpy
    body :func:`repro.core.histogram.fill_class`."""

    def _numpy(self, values, labels, edges, q, c):
        counts = np.zeros((q, c))
        vmin = np.full(q, np.inf)
        vmax = np.full(q, -np.inf)
        bins = bin_index(values, edges)
        np.add.at(counts, (bins, np.asarray(labels)), 1.0)
        np.fmin.at(vmin, bins, values)
        np.fmax.at(vmax, bins, values)
        return counts, vmin, vmax

    def test_matches_numpy_with_nans(self, rng):
        n, c = 4_000, 3
        edges = np.sort(rng.normal(size=16))
        values = rng.normal(size=n)
        values[::53] = np.nan  # sorts above every number -> last bin
        labels = rng.integers(0, c, size=n)
        ref = self._numpy(values, labels, edges, len(edges) + 1, c)
        for hist in (
            fused_fill(ClassHistogram(edges, c), values[:, None], labels),
            numpy_fill(ClassHistogram(edges, c), values, labels),
        ):
            np.testing.assert_array_equal(hist.counts, ref[0])
            np.testing.assert_array_equal(hist.vmin, ref[1])
            np.testing.assert_array_equal(hist.vmax, ref[2])

    def test_strided_column_view(self, rng):
        X = np.ascontiguousarray(rng.normal(size=(500, 5)))
        labels = rng.integers(0, 2, size=500)
        edges = np.array([-0.5, 0.5])
        ref = self._numpy(X[:, 3], labels, edges, 3, 2)
        hist = fused_fill(ClassHistogram(edges, 2), X[:, 3:4], labels)  # stride 5
        np.testing.assert_array_equal(hist.counts, ref[0])
        np.testing.assert_array_equal(hist.vmin, ref[1])
        np.testing.assert_array_equal(hist.vmax, ref[2])

    def test_histogram_update_identical_native_vs_numpy(self, rng):
        edges = np.sort(rng.normal(size=7))
        values = rng.normal(size=1_000)
        labels = rng.integers(0, 4, size=1_000)
        on = fused_fill(ClassHistogram(edges, 4), values[:, None], labels)
        off = numpy_fill(ClassHistogram(edges, 4), values, labels)
        np.testing.assert_array_equal(on.counts, off.counts)
        np.testing.assert_array_equal(on.vmin, off.vmin)
        np.testing.assert_array_equal(on.vmax, off.vmax)

    def test_label_out_of_range_raises(self, rng):
        values = rng.normal(size=10)
        labels = np.full(10, 7, dtype=np.int64)
        part = PartState(0, 3, {0: ClassHistogram(np.array([0.0]), 3)})
        with pytest.raises(ValueError):
            native_scan.fused_accum(part.laid_out().plan.parts[0], values[:, None], labels)
        assert not part.class_counts.any()

    def test_declines_off_envelope(self, rng):
        part = PartState(0, 2, {0: ClassHistogram(np.array([0.0]), 2)})
        plan = part.laid_out().plan.parts[0]
        labels = np.zeros(8, dtype=np.int64)
        X = rng.normal(size=(8, 1))
        assert not native_scan.fused_accum(plan, X.astype(np.float32), labels)
        assert not native_scan.fused_accum(plan, X, np.zeros(8, dtype=bool))
        assert not native_scan.fused_accum(plan, X, labels[:7])
        assert not native_scan.fused_accum(plan, X[:, 0], labels)
        assert not part.class_counts.any()


class TestCatAccum:
    """One category histogram filled by the fused kernel against the
    numpy body :func:`repro.core.histogram.fill_category`."""

    def test_matches_numpy_with_negative_codes(self, rng):
        n, ncat, c = 2_000, 6, 3
        codes = rng.integers(0, ncat, size=n).astype(np.float64)
        codes[::71] = -2.0  # numpy fancy indexing wraps negatives
        labels = rng.integers(0, c, size=n)
        ref = np.zeros((ncat, c))
        np.add.at(ref, (np.asarray(codes, dtype=np.intp), np.asarray(labels)), 1.0)
        for hist in (
            fused_fill(CategoryHistogram(ncat, c), codes[:, None], labels),
            numpy_fill(CategoryHistogram(ncat, c), codes, labels),
        ):
            np.testing.assert_array_equal(hist.counts, ref)

    def test_category_histogram_identical(self, rng):
        codes = rng.integers(0, 5, size=800).astype(np.float64)
        labels = rng.integers(0, 2, size=800)
        on = fused_fill(CategoryHistogram(5, 2), codes[:, None], labels)
        off = numpy_fill(CategoryHistogram(5, 2), codes, labels)
        np.testing.assert_array_equal(on.counts, off.counts)

    @pytest.mark.parametrize("bad", [99.0, -99.0, float("nan"), 1e19])
    def test_out_of_range_code_raises(self, bad):
        codes = np.array([0.0, bad])
        labels = np.array([0, 0], dtype=np.int64)
        part = PartState(0, 2, {0: CategoryHistogram(4, 2)})
        with pytest.raises(IndexError):
            native_scan.fused_accum(part.laid_out().plan.parts[0], codes[:, None], labels)
        assert not part.class_counts.any()  # validation precedes every write


def mset_xy(x_edges, y_edges, c, dtype=np.int32):
    """A two-attribute matrix set (x = attribute 0, one y matrix), laid
    out alone with ``dtype`` cubes."""
    schema = Schema((continuous("x"), continuous("y")), tuple(f"k{i}" for i in range(c)))
    ms = MatrixSet.planned(schema, 0, {0: x_edges, 1: y_edges})
    LevelArena([ms], 2**31 if dtype == np.int64 else 0)
    return ms


def plan_of(ms):
    return ms.arena.plan.parts[ms.index]


class TestMatrixAccum:
    """The matrix cube fill, now one table of the fused set kernel."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64])
    def test_matches_numpy(self, rng, dtype):
        n, qx, qy, c = 3_000, 9, 11, 3
        x_edges = np.sort(rng.normal(size=qx - 1))
        y_edges = np.sort(rng.normal(size=qy - 1))
        xv = rng.normal(size=n)
        yv = rng.normal(size=n)
        labels = rng.integers(0, c, size=n)
        x_bins = bin_index(xv, x_edges)
        y_bins = bin_index(yv, y_edges)
        ref = np.zeros((qx, qy, c), dtype=dtype)
        np.add.at(ref, (x_bins, y_bins, np.asarray(labels)), 1)
        rmin = np.full(qy, np.inf)
        rmax = np.full(qy, -np.inf)
        np.fmin.at(rmin, y_bins, yv)
        np.fmax.at(rmax, y_bins, yv)
        ms = mset_xy(x_edges, y_edges, c, dtype)
        assert native_scan.fused_accum(plan_of(ms), np.column_stack([xv, yv]), labels)
        m = ms.matrices[1]
        assert m.counts.dtype == dtype
        np.testing.assert_array_equal(m.counts, ref)
        np.testing.assert_array_equal(m.y_stats.vmin, rmin)
        np.testing.assert_array_equal(m.y_stats.vmax, rmax)

    def test_update_binned_identical(self, rng):
        ms = mset_xy(np.array([0.0]), np.array([-1.0, 1.0]), 2)
        xv = rng.normal(size=600)
        yv = rng.normal(size=600)
        labels = rng.integers(0, 2, size=600)
        before = native_scan.kernel_counts()["matrix_accum"]
        ms.update(np.column_stack([xv, yv]), labels)
        assert native_scan.kernel_counts()["matrix_accum"] == before + 1
        m_on = ms.matrices[1]
        # The binned numpy reference: x and y bins, one add per record.
        y_bins = bin_index(yv, m_on.y_edges)
        ref = np.zeros((2, 3, 2), dtype=np.int32)
        np.add.at(ref, (bin_index(xv, ms.x_edges), y_bins, labels), 1)
        rmin, rmax = np.full(3, np.inf), np.full(3, -np.inf)
        np.fmin.at(rmin, y_bins, yv)
        np.fmax.at(rmax, y_bins, yv)
        np.testing.assert_array_equal(m_on.counts, ref)
        np.testing.assert_array_equal(m_on.y_stats.vmin, rmin)
        np.testing.assert_array_equal(m_on.y_stats.vmax, rmax)

    def test_unsupported_count_dtype_declines(self, rng):
        # A level arena lays out int32 or int64 cubes only, and a part
        # without a plan slice takes its numpy path.
        dtypes = {cube_dtype(n) for n in (0, 2**31 - 1, 2**31, 2**40)}
        assert dtypes == {np.dtype(np.int32), np.dtype(np.int64)}
        X = rng.normal(size=(4, 2))
        assert not native_scan.fused_accum(None, X, np.zeros(4, dtype=np.int64))


# ---------------------------------------------------------------------------
# Fused part accumulation: PartState.update vs its numpy body
# ---------------------------------------------------------------------------

LAYOUTS = ("c", "f", "strided", "reversed")


def laid_out(X, layout):
    """``X``'s values in another memory layout (a copy or a view)."""
    if layout == "f":
        return np.asfortranarray(X)
    if layout == "strided":
        big = np.zeros((2 * X.shape[0], 2 * X.shape[1]))
        big[::2, ::2] = X
        return big[::2, ::2]
    if layout == "reversed":
        return np.ascontiguousarray(X[::-1])[::-1]
    return X


@st.composite
def part_cases(draw, max_cont=6, max_cat=4, max_n=120):
    """A part's attributes and a stream of batches for it."""
    kinds = [("cont", draw(st.integers(1, 200))) for _ in range(draw(st.integers(1, max_cont)))]
    kinds += [("cat", draw(st.integers(1, 6))) for _ in range(draw(st.integers(0, max_cat)))]
    return dict(
        kinds=kinds,
        c=draw(st.integers(2, 12)),
        sizes=draw(st.lists(st.integers(0, max_n), min_size=1, max_size=3)),
        seed=draw(st.integers(0, 2**32 - 1)),
        layout=draw(st.sampled_from(LAYOUTS)),
        special=draw(st.booleans()),
        weighted=draw(st.booleans()),
        label_dtype=draw(st.sampled_from([np.int64, np.int32])),
    )


class PartCase:
    """A drawn case made concrete: column kinds, grids and batches."""

    def __init__(self, case):
        rng = np.random.default_rng(case["seed"])
        self.c = case["c"]
        self.kinds = [case["kinds"][i] for i in rng.permutation(len(case["kinds"]))]
        self.edges = {}
        for j, (kind, size) in enumerate(self.kinds):
            if kind == "cont":
                edges = np.sort(rng.normal(size=size - 1))
                self.edges[j] = np.round(edges, 1) if case["special"] else edges
        self.batches = [self._batch(rng, n, case) for n in case["sizes"]]

    def _batch(self, rng, n, case):
        X = np.empty((n, len(self.kinds)))
        for j, (kind, size) in enumerate(self.kinds):
            if kind == "cat":
                X[:, j] = rng.integers(-size, size, size=n)
                continue
            col = rng.normal(size=n)
            if case["special"]:
                col = np.round(col, 1)
                pick = rng.random(n)
                if size > 1:
                    on_edge = pick < 0.2
                    col[on_edge] = rng.choice(self.edges[j], size=int(on_edge.sum()))
                col[(pick >= 0.2) & (pick < 0.3)] = np.nan
                col[(pick >= 0.3) & (pick < 0.35)] = np.inf
                col[(pick >= 0.35) & (pick < 0.4)] = -np.inf
            X[:, j] = col
        y = rng.integers(0, self.c, size=n).astype(case["label_dtype"])
        w = rng.integers(1, 5, size=n).astype(np.float64) if case["weighted"] else None
        return laid_out(X, case["layout"]), y, w

    def part(self):
        hists = {
            j: (
                ClassHistogram(self.edges[j], self.c)
                if kind == "cont"
                else CategoryHistogram(size, self.c)
            )
            for j, (kind, size) in enumerate(self.kinds)
        }
        return PartState(0, self.c, hists)

    def n_hists(self, kind):
        return sum(k == kind for k, __ in self.kinds)


def assert_parts_equal(a, b):
    np.testing.assert_array_equal(a.class_counts, b.class_counts)
    assert a.hists.keys() == b.hists.keys()
    for j, h in a.hists.items():
        np.testing.assert_array_equal(h.counts, b.hists[j].counts)
        if isinstance(h, ClassHistogram):
            np.testing.assert_array_equal(h.vmin, b.hists[j].vmin)
            np.testing.assert_array_equal(h.vmax, b.hists[j].vmax)


def numpy_part(pc, batches):
    with native_scan.force_numpy():
        ref = pc.part()
        for X, y, w in batches:
            ref.update(X, y, w)
    return ref


def check_fused_part(case):
    pc = PartCase(case)
    fused = pc.part()
    before = native_scan.kernel_counts()
    for X, y, w in pc.batches:
        fused.update(X, y, w)
    after = native_scan.kernel_counts()
    filled = sum(len(y) > 0 for __, y, __ in pc.batches)
    # The fused entry filled every histogram: no silent numpy fallback.
    assert after["hist_accum"] - before["hist_accum"] == filled * pc.n_hists("cont")
    assert after["cat_accum"] - before["cat_accum"] == filled * pc.n_hists("cat")
    assert_parts_equal(fused, numpy_part(pc, pc.batches))


def corrupt(pc, case_rng):
    """One batch with a single bad label or category code."""
    X, y, w = pc.batches[0]
    X, y = np.array(X), np.array(y)
    if len(y) == 0:
        X, y = np.zeros((1, len(pc.kinds))), np.zeros(1, dtype=np.int64)
        w = None if w is None else np.ones(1)
    r = int(case_rng.integers(0, len(y)))
    cats = [j for j, (kind, __) in enumerate(pc.kinds) if kind == "cat"]
    if cats and case_rng.random() < 0.5:
        j = cats[int(case_rng.integers(0, len(cats)))]
        ncat = pc.kinds[j][1]
        X[r, j] = case_rng.choice([ncat, -ncat - 1, np.nan, 1e19, -np.inf])
    else:
        y[r] = case_rng.choice([-1, pc.c, pc.c + 7])
    return X, y, w


def raised(fn):
    try:
        with np.errstate(invalid="ignore"):
            fn()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc)
    return None


class TestFusedPartAccum:
    @given(part_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_numpy(self, case):
        check_fused_part(case)

    @pytest.mark.fuzz
    @given(part_cases(max_n=2_000))
    @settings(max_examples=400, deadline=None)
    def test_matches_numpy_wide(self, case):
        check_fused_part(case)

    @given(part_cases(max_n=40))
    @settings(max_examples=40, deadline=None)
    def test_bad_input_raises_like_numpy(self, case):
        pc = PartCase(case)
        X, y, w = corrupt(pc, np.random.default_rng(case["seed"]))
        fused = pc.part()
        got = raised(lambda: fused.update(X, y, w))
        with native_scan.force_numpy():
            reference = pc.part()
            want = raised(lambda: reference.update(X, y, w))
        assert want in (ValueError, IndexError)
        assert got is want
        # Validation precedes every write, on both paths.
        assert_parts_equal(fused, pc.part())
        assert_parts_equal(reference, pc.part())

    def test_weighted_equals_repeated(self, rng):
        pc = PartCase(
            dict(kinds=[("cont", 9), ("cat", 3)], c=3, sizes=[200], seed=5,
                 layout="c", special=False, weighted=True, label_dtype=np.int64)
        )
        (X, y, w), = pc.batches
        weighted, repeated = pc.part(), pc.part()
        weighted.update(X, y, w)
        reps = w.astype(np.int64)
        repeated.update(np.repeat(X, reps, axis=0), np.repeat(y, reps))
        assert_parts_equal(weighted, repeated)


class TestPartPlanLifecycle:
    """A part's slice of its arena's plan never goes stale or crosses copies."""

    CASE = dict(
        kinds=[("cont", 12), ("cont", 5), ("cat", 4)],
        c=3,
        sizes=[150, 150],
        seed=11,
        layout="c",
        special=True,
        weighted=False,
        label_dtype=np.int64,
    )

    def test_update_after_pickle_round_trip(self):
        pc = PartCase(self.CASE)
        part = pc.part()
        # A part not yet laid out pickles with its own arrays ...
        copy = pickle.loads(pickle.dumps(part))
        copy.update(*pc.batches[0])
        copy.update(*pc.batches[1])
        assert_parts_equal(copy, numpy_part(pc, pc.batches))
        assert part.arena is None
        # ... and one laid out in an arena refuses to.
        part.update(*pc.batches[0])
        assert part.arena.plan.parts[part.index]
        with pytest.raises(TypeError):
            pickle.dumps(part)
        assert_parts_equal(part, numpy_part(pc, pc.batches[:1]))

    def test_merge_then_update(self):
        pc = PartCase(self.CASE)
        part, other = pc.part(), pc.part()
        part.update(*pc.batches[0])
        other.update(*pc.batches[1])
        part.merge_from(other)
        part.update(*pc.batches[0])
        assert_parts_equal(part, numpy_part(pc, pc.batches + pc.batches[:1]))

    def test_plan_refuses_to_pickle(self):
        pc = PartCase(self.CASE)
        part = pc.part()
        part.update(*pc.batches[0])
        with pytest.raises(TypeError):
            pickle.dumps(part.arena.plan)


class TestNoSilentFallback:
    """Every non-empty part update of a real build takes the fused entry."""

    @pytest.mark.parametrize("builder", ["CMP", "CMP-B", "CMP-S", "CLOUDS", "bagged"])
    def test_builds_take_the_fused_entry(self, builder, monkeypatch):
        from repro.data.synthetic import generate_agrawal
        from repro.eval.experiments import default_config
        from repro.verify.conformance import CASES_BY_NAME

        real = native_scan.fused_accum
        taken = []

        def spy(plan, X, y, weights=None):
            taken.append(real(plan, X, y, weights))
            return taken[-1]

        updates = []
        for owner in (PartState, MatrixSet):
            original = owner.update

            def counted(self, X, y, *rest, _original=original):
                updates.append(len(y) > 0)
                return _original(self, X, y, *rest)

            monkeypatch.setattr(owner, "update", counted)
        monkeypatch.setattr(native_scan, "fused_accum", spy)
        name = {"CLOUDS": "CLOUDS-SSE", "bagged": "bagged-CMP-S"}.get(builder, builder)
        data = generate_agrawal("F7", 20_000, seed=1)
        CASES_BY_NAME[name].make(default_config()).build(data)
        assert sum(updates) > 0
        assert len(taken) == sum(updates)
        assert all(taken)


class TestSlopeWalk:
    def test_declines_outside_exactness_envelope(self):
        # Fractional, negative and int64 over-total cubes:
        # tests/test_native_decide.py.
        nan = np.zeros((3, 3, 2))
        nan[0, 0, 0] = np.nan
        assert native_scan.slope_walks([(nan, 1, 1)], 16) is None
        huge = np.zeros((3, 3, 2))
        huge[0, 0, 0] = 2.0**27
        assert native_scan.slope_walks([(huge, 1, 1)], 16) is None
        assert native_scan.slope_walks([(np.zeros((2, 2)), 1, 1)], 16) is None


# ---------------------------------------------------------------------------
# Dispatch state: counters, force_numpy, CMP_NO_NATIVE
# ---------------------------------------------------------------------------


class TestDispatchState:
    def test_kernel_counts_advance(self, rng):
        before = native_scan.kernel_counts()
        fused_fill(ClassHistogram(np.array([0.0]), 2), rng.normal(size=(64, 1)),
                   rng.integers(0, 2, size=64))
        after = native_scan.kernel_counts()
        assert after["hist_accum"] == before["hist_accum"] + 1
        assert native_scan.kernel_calls_total() == sum(after.values())

    def test_force_numpy_restores(self):
        assert native_scan.available()
        with native_scan.force_numpy():
            assert not native_scan.available()
            with native_scan.force_numpy():
                assert not native_scan.available()
        assert native_scan.available()

    def test_cmp_no_native_disables_kernels(self):
        code = (
            "from repro.core import native_scan\n"
            "import numpy as np\n"
            "assert not native_scan.available()\n"
            "from repro.core.histogram import ClassHistogram\n"
            "h = ClassHistogram(np.array([0.0]), 2)\n"
            "h.update(np.array([-1.0, 1.0]), np.array([0, 1]))\n"
            "assert h.counts.sum() == 2\n"
            "print('ok')\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env={**ENV, "CMP_NO_NATIVE": "1"},
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "ok"


# ---------------------------------------------------------------------------
# Compile cache: concurrency (satellite bugfix) and keying
# ---------------------------------------------------------------------------


class TestCompileRace:
    def test_two_processes_compile_concurrently(self, tmp_path):
        """Two fresh processes racing on a cold cache must both succeed.

        Regression for the compile race: both build the same cache key at
        once; per-pid temp files + atomic rename mean neither can load a
        half-written library.
        """
        code = (
            "from repro.core import native, native_scan\n"
            "assert native_scan.warm_up()\n"
            "assert native.native_available()\n"
            "print('ok')\n"
        )
        env = {**ENV, "CMP_NATIVE_CACHE": str(tmp_path / "cache")}
        env.pop("CMP_NO_NATIVE", None)
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", code],
                env=env,
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for _ in range(2)
        ]
        for proc in procs:
            out, err = proc.communicate(timeout=240)
            assert proc.returncode == 0, err
            assert out.strip() == "ok"
        published = list((tmp_path / "cache").glob("*.so"))
        assert len(published) == 1  # one library holds every kernel
        leftovers = list((tmp_path / "cache").glob("*.tmp*"))
        assert leftovers == []

    def test_cache_key_covers_compiler_and_source(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMP_NATIVE_CACHE", str(tmp_path))
        a = native_build.library_path("k", "int f(void){return 1;}", "cc")
        b = native_build.library_path("k", "int f(void){return 2;}", "cc")
        c = native_build.library_path("k", "int f(void){return 1;}", "gcc")
        assert len({a, b, c}) == 3
        assert all(p.startswith(str(tmp_path)) for p in (a, b, c))

    def test_load_library_reuses_cache(self, tmp_path, monkeypatch):
        monkeypatch.setenv("CMP_NATIVE_CACHE", str(tmp_path))
        source = "int cmp_answer(void) { return 42; }\n"
        lib = native_build.load_library("answer", source)
        assert lib is not None
        assert lib.cmp_answer() == 42
        (path,) = tmp_path.glob("answer-*.so")
        stamp = path.stat().st_mtime_ns
        again = native_build.load_library("answer", source)
        assert again.cmp_answer() == 42
        assert path.stat().st_mtime_ns == stamp  # no recompile
