"""In-memory spans recorded around calls into the program's layers.

The benchmark never edits the program: it replaces public functions
and methods with timing wrappers (:func:`wrap_method`,
:func:`wrap_iterator_method`) that open a span, call the original and
close the span.  Each thread keeps its own stack of open spans, so a
span's parent is the innermost span open on the same thread; spans of
one request share the request id set with :meth:`Tracer.bind`.

Spans stay in memory until :meth:`Tracer.dump`; :func:`self_times`
turns them into per-layer self time (a span's duration minus the part
of it its children cover).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple


class Span:
    __slots__ = ("span_id", "name", "start", "end", "parent", "rid", "tags")

    def __init__(self, span_id: int, name: str, start: float,
                 end: Optional[float] = None, parent: Optional[int] = None,
                 rid=None, tags: Optional[dict] = None):
        self.span_id = span_id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.rid = rid
        self.tags = tags or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_dict(self) -> dict:
        return {"id": self.span_id, "name": self.name, "start": self.start,
                "end": self.end, "parent": self.parent, "rid": self.rid,
                "tags": self.tags}

    @classmethod
    def from_dict(cls, d: dict) -> "Span":
        return cls(d["id"], d["name"], d["start"], d["end"], d["parent"],
                   d["rid"], d.get("tags") or {})


class Tracer:
    """Collects spans from every thread of one process."""

    def __init__(self):
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @property
    def rid(self):
        return getattr(self._local, "rid", None)

    def bind(self, rid) -> None:
        """Attach later spans opened on this thread to request ``rid``."""
        self._local.rid = rid

    def active(self, name: str) -> bool:
        return any(span.name == name for span in self._stack())

    def open(self, name: str, **tags) -> Span:
        stack = self._stack()
        span = Span(next(self._ids), name, time.perf_counter(),
                    parent=stack[-1].span_id if stack else None,
                    rid=self.rid, tags=tags)
        stack.append(span)
        return span

    def close(self, span: Span, keep: bool = True) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        # Pop through the span: a generator abandoned mid-iteration can
        # leave a child open, which must not adopt later siblings.
        while stack:
            if stack.pop() is span:
                break
        if keep:
            with self._lock:
                self.spans.append(span)

    def clear(self) -> None:
        with self._lock:
            self.spans = []

    def dump(self, path) -> None:
        with self._lock:
            payload = [span.to_dict() for span in self.spans]
        with open(path, "w") as handle:
            json.dump(payload, handle)


def load_spans(path) -> List[Span]:
    with open(path) as handle:
        return [Span.from_dict(d) for d in json.load(handle)]


def wrap_method(tracer: Tracer, owner, attr: str, name: str) -> None:
    """Replace ``owner.attr`` with a version that records span ``name``.

    A call made while a span of the same name is already open on the
    thread (``super()`` chains, recursion) is not recorded again.
    """
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        if tracer.active(name):
            return original(*args, **kwargs)
        span = tracer.open(name)
        try:
            return original(*args, **kwargs)
        finally:
            tracer.close(span)

    setattr(owner, attr, timed)


def timed_iterator(tracer: Tracer, iterator, name: str, **tags):
    """Yield from ``iterator``, recording one span per ``next`` call
    (the time spent producing each item)."""
    iterator = iter(iterator)
    while True:
        span = tracer.open(name, **tags)
        try:
            item = next(iterator)
        except StopIteration:
            # The exhausted final ``next`` did no work worth a span.
            tracer.close(span, keep=False)
            return
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span)
        yield item


def wrap_iterator_method(tracer: Tracer, owner, attr: str, name: str,
                         result_index: Optional[int] = None) -> None:
    """Replace ``owner.attr`` (which returns an iterator, or a tuple whose
    ``result_index`` item is one) so each produced item is timed as a
    span ``name``."""
    original = getattr(owner, attr)

    @functools.wraps(original)
    def timed(*args, **kwargs):
        result = original(*args, **kwargs)
        if result_index is None:
            return timed_iterator(tracer, result, name)
        items = list(result)
        items[result_index] = timed_iterator(tracer, items[result_index],
                                             name)
        return tuple(items)

    setattr(owner, attr, timed)


# ----------------------------------------------------------------------
# Analysis
# ----------------------------------------------------------------------
def covered(intervals: Iterable[Tuple[float, float]],
            lo: Optional[float] = None, hi: Optional[float] = None) -> float:
    """Length of the union of ``intervals``, clipped to ``[lo, hi]``."""
    clipped = []
    for start, end in intervals:
        if lo is not None:
            start = max(start, lo)
        if hi is not None:
            end = min(end, hi)
        if end > start:
            clipped.append((start, end))
    clipped.sort()
    total, cur_start, cur_end = 0.0, None, None
    for start, end in clipped:
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans: Sequence[Span]) -> Dict[int, float]:
    """``{span_id: self time}``: each span's duration minus the part of
    it covered by its direct children (overlapping children count
    once)."""
    children: Dict[int, List[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = {}
    for span in spans:
        kids = children.get(span.span_id, ())
        inner = covered(((k.start, k.end) for k in kids),
                        span.start, span.end)
        result[span.span_id] = span.duration - inner
    return result
