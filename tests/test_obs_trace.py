"""Tests for repro.obs.trace: spans, parenting, export, round-trips."""

from __future__ import annotations

import io
import threading

import pytest

from repro.obs.trace import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    load_trace_jsonl,
    render_tree,
    span_from_dict,
)


class TestSpanBasics:
    def test_records_name_and_attrs(self):
        tracer = Tracer()
        with tracer.span("work", items=3, label="x") as sp:
            pass
        assert sp.name == "work"
        assert sp.attrs == {"items": 3, "label": "x"}
        assert sp.end_s is not None
        assert sp.duration_s >= 0.0

    def test_duration_zero_while_open(self):
        tracer = Tracer()
        ctx = tracer.span("open")
        sp = ctx.__enter__()
        assert sp.duration_s == 0.0
        ctx.__exit__(None, None, None)
        assert sp.duration_s >= 0.0

    def test_annotate_after_exit(self):
        # Builders stamp final counters on the build span after it closed.
        tracer = Tracer()
        with tracer.span("build") as sp:
            pass
        sp.annotate(scans=7)
        assert tracer.spans()[0].attrs["scans"] == 7

    def test_ids_unique_and_start_ordered(self):
        tracer = Tracer()
        with tracer.span("a"):
            pass
        with tracer.span("b"):
            pass
        ids = [sp.span_id for sp in tracer.spans()]
        assert ids == sorted(set(ids))
        names = [sp.name for sp in tracer.spans()]
        assert names == ["a", "b"]


class TestParenting:
    def test_with_nesting_links_implicitly(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == outer.span_id
        assert b.parent_id == outer.span_id

    def test_parent_none_forces_root(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("detached", parent=None) as sp:
                pass
        assert sp.parent_id is None

    def test_explicit_parent_crosses_threads(self):
        tracer = Tracer()
        recorded: list[Span] = []
        with tracer.span("scan") as scan_span:

            def worker():
                with tracer.span("chunk_batch", parent=scan_span) as sp:
                    recorded.append(sp)

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert recorded[0].parent_id == scan_span.span_id

    def test_implicit_stack_is_per_thread(self):
        # A span open on the main thread must not become the implicit
        # parent of a span started on another thread.
        tracer = Tracer()
        out: list[Span] = []
        with tracer.span("main_open"):

            def worker():
                with tracer.span("worker_root") as sp:
                    out.append(sp)

            t = threading.Thread(target=worker)
            t.start()
            t.join()
        assert out[0].parent_id is None

    def test_concurrent_spans_thread_safe(self):
        tracer = Tracer()

        def worker(i: int):
            for _ in range(50):
                with tracer.span("w", worker=i):
                    pass

        threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        spans = tracer.spans()
        assert len(spans) == 200
        assert len({sp.span_id for sp in spans}) == 200


class TestJsonl:
    def test_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", k="v") as outer:
            with tracer.span("inner", n=2):
                pass
        path = tmp_path / "trace.jsonl"
        n = tracer.write_jsonl(str(path))
        assert n == 2
        loaded = load_trace_jsonl(str(path))
        assert [sp.name for sp in loaded] == ["outer", "inner"]
        assert loaded[1].parent_id == outer.span_id
        assert loaded[0].attrs == {"k": "v"}
        assert loaded[1].duration_s >= 0.0

    def test_file_object_round_trip(self):
        tracer = Tracer()
        with tracer.span("only"):
            pass
        buf = io.StringIO()
        assert tracer.write_jsonl(buf) == 1
        buf.seek(0)
        assert [sp.name for sp in load_trace_jsonl(buf)] == ["only"]

    def test_bad_line_names_line_number(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        tracer = Tracer()
        with tracer.span("fine"):
            pass
        tracer.write_jsonl(str(path))
        with open(path, "a") as fh:
            fh.write("{not json\n")
        with pytest.raises(ValueError, match="line 2"):
            load_trace_jsonl(str(path))

    def test_blank_lines_skipped(self):
        buf = io.StringIO('\n{"span_id": 0, "parent_id": null, "name": "a", '
                          '"start_s": 0.0, "dur_s": 0.1}\n\n')
        assert len(load_trace_jsonl(buf)) == 1


class TestRenderTree:
    def test_children_indent_under_parents(self):
        tracer = Tracer()
        with tracer.span("build", builder="CMP"):
            with tracer.span("level", level=1):
                pass
        text = tracer.render()
        lines = text.splitlines()
        assert lines[0].startswith("build")
        assert lines[1].startswith("  level")
        assert "builder=CMP" in lines[0]

    def test_orphan_parent_promoted_to_root(self):
        sp = Span("lonely", span_id=5, parent_id=99, start_s=0.0, thread="t", attrs={})
        sp.end_s = 0.5
        text = render_tree([sp])
        assert text.startswith("lonely")

    def test_empty(self):
        assert render_tree([]) == "(empty trace)"


class TestNullTracer:
    def test_span_is_reusable_noop(self):
        with NULL_TRACER.span("anything", key=1) as sp:
            sp.annotate(more=2)
        assert NULL_TRACER.spans() == []
        assert len(NULL_TRACER) == 0
        assert not NULL_TRACER.enabled
        assert Tracer().enabled

    def test_write_jsonl_refuses(self):
        with pytest.raises(RuntimeError):
            NullTracer().write_jsonl("/dev/null")

    def test_render_placeholder(self):
        assert "disabled" in NullTracer().render()


class TestContinuity:
    def test_context_round_trips_via_dict_and_pickle(self):
        import pickle

        tracer = Tracer()
        with tracer.span("scan") as sp:
            ctx = tracer.context(sp)
        assert ctx.parent_id == sp.span_id
        assert TraceContext.from_dict(ctx.to_dict()) == ctx
        assert pickle.loads(pickle.dumps(ctx)) == ctx

    def test_worker_tracer_shares_time_axis(self):
        parent = Tracer()
        worker = Tracer.from_context(parent.context())
        with parent.span("a"):
            pass
        with worker.span("b"):
            pass
        # Same epoch: the worker span starts after the parent span did.
        assert worker.spans()[0].start_s >= parent.spans()[0].start_s

    def test_graft_remaps_ids_and_parents(self):
        parent = Tracer()
        with parent.span("scan") as scan:
            pass
        worker = Tracer.from_context(parent.context(scan))
        with worker.span("chunk_batch"):
            with worker.span("kernel"):
                pass
        shipped = [sp.to_dict() for sp in worker.spans()]
        grafted = parent.graft(shipped, parent=scan, worker=3)
        spans = {sp.name: sp for sp in parent.spans()}
        batch, kernel = spans["chunk_batch"], spans["kernel"]
        # Fresh ids from the parent's sequence, no collision with scan.
        assert len({sp.span_id for sp in parent.spans()}) == 3
        assert batch.parent_id == scan.span_id
        assert kernel.parent_id == batch.span_id
        # root_attrs land on the shipped root only.
        assert batch.attrs["worker"] == 3
        assert "worker" not in kernel.attrs
        assert [sp.name for sp in grafted] == ["chunk_batch", "kernel"]

    def test_graft_without_parent_makes_roots(self):
        tracer = Tracer()
        worker = Tracer()
        with worker.span("lonely"):
            pass
        (grafted,) = tracer.graft(worker.spans())
        assert grafted.parent_id is None

    def test_graft_keeps_timestamps_verbatim(self):
        tracer = Tracer()
        worker = Tracer.from_context(tracer.context())
        with worker.span("w"):
            pass
        orig = worker.spans()[0]
        (grafted,) = tracer.graft([orig.to_dict()])
        # The shipped dict rounds times to 1 ns; grafting keeps exactly
        # what was shipped.
        shipped = span_from_dict(orig.to_dict())
        assert grafted.start_s == shipped.start_s
        assert grafted.end_s == shipped.end_s

    def test_span_from_dict_round_trip(self):
        # to_dict rounds times to 1 ns, so the span's start and duration
        # are whole nanoseconds that binary floats also hold exactly.
        sp = Span("x", 3, 1, 100.0, "main", {"key": "v"})
        sp.end_s = 100.0 + 2.0**-9
        d = sp.to_dict()
        back = span_from_dict(d)
        assert back.name == sp.name
        assert back.span_id == sp.span_id
        assert back.parent_id == sp.parent_id
        assert back.attrs == sp.attrs
        assert back.duration_s == pytest.approx(sp.duration_s)
        assert span_from_dict(d).to_dict() == d

    def test_null_tracer_context_and_graft_are_noops(self):
        nt = NullTracer()
        assert nt.context() is None
        assert nt.graft([{"span_id": 0}]) == []
