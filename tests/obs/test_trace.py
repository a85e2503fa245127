"""Span primitives: the disabled fast path, nesting, cross-process replay."""

import os
import pickle

import pytest

from repro.obs.export import InMemoryCollector
from repro.obs.trace import (
    _NULL_SPAN,
    SpanRecord,
    adopt_parent,
    current_span_id,
    replay,
    span,
    tracing_enabled,
    use_sink,
)


class TestDisabledFastPath:
    def test_no_sink_returns_the_shared_null_span(self):
        assert not tracing_enabled()
        assert span("anything") is _NULL_SPAN
        assert span("anything", attr=1) is _NULL_SPAN

    def test_null_span_is_inert(self):
        with span("x") as sp:
            assert sp.set(a=1) is sp
            assert current_span_id() is None

    def test_enabled_only_while_sink_installed(self):
        with use_sink(InMemoryCollector()):
            assert tracing_enabled()
            assert span("x") is not _NULL_SPAN
            with span("x"):
                pass
        assert not tracing_enabled()


class TestNesting:
    def test_parent_child_ids(self):
        with use_sink(InMemoryCollector()) as collector:
            with span("outer", kind="o"):
                with span("inner"):
                    pass
        (inner,) = collector.by_name("inner")
        (outer,) = collector.by_name("outer")
        assert outer.parent_id is None
        assert inner.parent_id == outer.span_id
        # children emit before their parent (exit order)
        assert collector.records == [inner, outer]

    def test_timing_and_attrs(self):
        with use_sink(InMemoryCollector()) as collector:
            with span("work", phase="compile") as sp:
                sp.set(states=7)
        (rec,) = collector.records
        assert rec.end >= rec.start and rec.seconds >= 0.0
        assert rec.attrs == {"phase": "compile", "states": 7}

    def test_attr_may_be_called_name(self):
        # span() takes the span name positional-only, so an attribute may
        # itself be called ``name`` (elaborate.spec does exactly this).
        with use_sink(InMemoryCollector()) as collector:
            with span("elaborate.spec", name="RW"):
                pass
        assert collector.records[0].attrs == {"name": "RW"}

    def test_current_span_id_tracks_innermost(self):
        with use_sink(InMemoryCollector()) as collector:
            assert current_span_id() is None
            with span("outer"):
                outer_id = current_span_id()
                with span("inner"):
                    assert current_span_id() != outer_id
                assert current_span_id() == outer_id
            assert current_span_id() is None
        assert collector.by_name("outer")[0].span_id == outer_id

    def test_exception_recorded_and_reraised(self):
        collector = InMemoryCollector()
        with pytest.raises(ValueError):
            with use_sink(collector):
                with span("boom"):
                    raise ValueError("no")
        (rec,) = collector.records
        assert rec.attrs["error"] == "ValueError"


class TestCrossProcess:
    """The worker half: adopt_parent + picklable records + replay."""

    def test_adopt_parent_reroots_spans(self):
        with use_sink(InMemoryCollector()) as parent_sink:
            with span("engine.run"):
                shipped_id = current_span_id()

        # "worker side": its own sink, re-rooted under the shipped id.
        worker_sink = InMemoryCollector()
        with use_sink(worker_sink), adopt_parent(shipped_id):
            with span("engine.obligation", ident="P0"):
                assert current_span_id() != shipped_id

        # records cross the boundary by pickle, then replay re-joins them
        wire = pickle.dumps(tuple(worker_sink.records))
        with use_sink(parent_sink):
            replay(pickle.loads(wire))

        (run,) = parent_sink.by_name("engine.run")
        (ob,) = parent_sink.by_name("engine.obligation")
        assert ob.parent_id == run.span_id
        assert ob.attrs == {"ident": "P0"}

    def test_adopt_none_is_a_no_op(self):
        with use_sink(InMemoryCollector()) as collector:
            with adopt_parent(None):
                with span("solo"):
                    pass
        assert collector.records[0].parent_id is None

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_ids_carry_the_child_pid(self):
        read_end, write_end = os.pipe()
        pid = os.fork()
        if pid == 0:  # child: one span, its id up the pipe, no cleanup
            try:
                with use_sink(InMemoryCollector()) as sink:
                    with span("child"):
                        pass
                os.write(write_end, sink.records[0].span_id.encode())
            finally:
                os._exit(0)
        os.close(write_end)
        with os.fdopen(read_end) as pipe:
            child_id = pipe.read()
        os.waitpid(pid, 0)
        with use_sink(InMemoryCollector()) as sink:
            with span("parent"):
                pass
        assert child_id.startswith(f"{pid:x}-")
        assert sink.records[0].span_id.startswith(f"{os.getpid():x}-")

    def test_span_record_pickles_intact(self):
        rec = SpanRecord("n", "1-2", "1-1", 0.5, 1.5, {"k": "v"})
        clone = pickle.loads(pickle.dumps(rec))
        assert clone == rec
        assert clone.seconds == 1.0
        assert clone.as_dict()["attrs"] == {"k": "v"}
