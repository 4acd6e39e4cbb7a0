"""Span collection and self-time computation."""

import threading

import pytest

from perfbench.spans import (
    Span, Tracer, covered, self_times, timed_iterator, wrap_method,
)


def test_covered_merges_overlaps_and_clips():
    assert covered([(0, 2), (1, 3), (5, 6)]) == 4
    assert covered([(0, 2), (1, 3), (5, 6)], lo=1, hi=5.5) == 2.5
    assert covered([]) == 0


def test_self_time_subtracts_children_once():
    spans = [
        Span(1, "root", 0.0, 10.0),
        Span(2, "a", 1.0, 4.0, parent=1),
        Span(3, "b", 3.0, 6.0, parent=1),     # overlaps a by 1
        Span(4, "leaf", 1.5, 2.0, parent=2),
    ]
    own = self_times(spans)
    assert own[1] == pytest.approx(10.0 - 5.0)
    assert own[2] == pytest.approx(3.0 - 0.5)
    assert own[3] == pytest.approx(3.0)
    assert own[4] == pytest.approx(0.5)


def test_child_outside_parent_is_clipped():
    spans = [Span(1, "p", 0.0, 1.0), Span(2, "c", 0.5, 3.0, parent=1)]
    assert self_times(spans)[1] == pytest.approx(0.5)


class _Thing:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1

    def again(self, depth):
        return 0 if depth == 0 else self.again(depth - 1)


def test_wrapped_calls_nest_and_carry_the_request_id():
    tracer = Tracer()
    wrap_method(tracer, _Thing, "outer", "outer")
    wrap_method(tracer, _Thing, "inner", "inner")
    tracer.bind("r1")
    assert _Thing().outer() == 2
    inner, outer = tracer.spans
    assert (inner.name, outer.name) == ("inner", "outer")
    assert inner.parent == outer.span_id and outer.parent is None
    assert inner.rid == outer.rid == "r1"
    assert outer.start <= inner.start <= inner.end <= outer.end


def test_reentrant_calls_record_one_span():
    tracer = Tracer()
    wrap_method(tracer, _Thing, "again", "again")
    _Thing().again(3)
    assert [s.name for s in tracer.spans] == ["again"]


def test_threads_keep_separate_stacks():
    tracer = Tracer()
    ready, release = threading.Event(), threading.Event()
    outer = tracer.open("outer")

    def other():
        span = tracer.open("other")
        ready.set()
        release.wait(5)
        tracer.close(span)

    thread = threading.Thread(target=other)
    thread.start()
    ready.wait(5)
    release.set()
    thread.join(5)
    assert not thread.is_alive()
    tracer.close(outer)
    other_span = next(s for s in tracer.spans if s.name == "other")
    assert other_span.parent is None


def test_timed_iterator_records_one_span_per_item():
    tracer = Tracer()
    items = list(timed_iterator(tracer, iter([1, 2, 3]), "item"))
    assert items == [1, 2, 3]
    assert [s.name for s in tracer.spans] == ["item"] * 3


def test_dump_and_load_round_trip(tmp_path):
    from perfbench.spans import load_spans

    tracer = Tracer()
    tracer.bind("r9")
    tracer.close(tracer.open("x", rows=3))
    tracer.dump(tmp_path / "spans.json")
    (span,) = load_spans(tmp_path / "spans.json")
    assert (span.name, span.rid, span.tags) == ("x", "r9", {"rows": 3})
