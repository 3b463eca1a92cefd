"""Run-time span tracer for the benchmark.

The library has no tracing hooks, so the tracer installs them from outside:
:meth:`Tracer.wrap` registers ``owner.attr`` (a module function, a method or
a classmethod), :meth:`Tracer.install` swaps each one for a wrapper that
records a span around every call and :meth:`Tracer.uninstall` puts the
originals back.  Untraced code therefore runs the library's own functions,
with no wrapper left in the call path.

A span has a name, start and end (``time.perf_counter`` seconds), the span
open on the same thread when it began (its parent) and an operation id that
all spans under one root share.  Spans stay in memory until the run ends;
:func:`self_times` derives each name's self time as span duration minus the
part of it that child spans cover, :func:`coverage` the share of the
operation roots that named spans cover, and :meth:`Tracer.write_json` /
:meth:`Tracer.write_chrome` export the spans (the latter in Chrome
trace-event format, viewable in Perfetto).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field


@dataclass
class Span:
    """One timed call: name, interval, parent span id and operation id."""

    id: int
    name: str
    start: float
    parent: int | None
    op: int
    thread: int
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Records spans around wrapped library functions."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        #: Measurements taken at layer boundaries (queue waits...), appended
        #: from several threads: create keys with ``setdefault``.
        self.samples: dict[str, list[float]] = {}
        self._local = threading.local()
        self._ids = itertools.count()
        self._ops = itertools.count()
        self._targets: list[tuple] = []
        self._installed: list[tuple] = []

    # -- recording -------------------------------------------------------
    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self, name: str, attrs: dict | None = None) -> Span:
        stack = self._stack()
        parent = stack[-1] if stack else None
        span = Span(
            id=next(self._ids), name=name, start=time.perf_counter(),
            parent=parent.id if parent else None,
            op=parent.op if parent else next(self._ops),
            thread=threading.get_ident(), attrs=attrs or {},
        )
        stack.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)

    @contextmanager
    def span(self, name: str, **attrs):
        """Span around a block of the benchmark's own code."""
        span = self.begin(name, attrs)
        try:
            yield span
        finally:
            self.end(span)

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, *, describe=None,
             on_return=None) -> None:
        """Register ``owner.attr`` to be traced as span ``name``.

        ``describe(args, kwargs)`` returns span attributes; ``on_return(
        tracer, span, args, result)`` runs inside the span after the call.
        """
        self._targets.append((owner, attr, name, describe, on_return))

    def fresh(self) -> "Tracer":
        """A new, empty tracer with the same wrap targets."""
        other = Tracer()
        other._targets = list(self._targets)
        return other

    def install(self) -> None:
        if self._installed:
            raise RuntimeError("tracer is already installed")
        for owner, attr, name, describe, on_return in self._targets:
            own = isinstance(owner, type) and attr in owner.__dict__
            raw = owner.__dict__[attr] if own else getattr(owner, attr)
            if isinstance(raw, (classmethod, staticmethod)):
                patched = type(raw)(self._wrapper(
                    raw.__func__, name, describe, on_return))
            else:
                patched = self._wrapper(raw, name, describe, on_return)
            setattr(owner, attr, patched)
            self._installed.append((owner, attr, raw, own or
                                    not isinstance(owner, type)))

    def uninstall(self) -> None:
        for owner, attr, raw, restore in reversed(self._installed):
            if restore:
                setattr(owner, attr, raw)
            else:
                delattr(owner, attr)
        self._installed.clear()

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _wrapper(self, fn, name, describe, on_return):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.begin(
                name, describe(args, kwargs) if describe else None)
            try:
                result = fn(*args, **kwargs)
                if on_return is not None:
                    on_return(tracer, span, args, result)
                return result
            finally:
                tracer.end(span)

        return traced

    # -- export ----------------------------------------------------------
    def write_json(self, path, meta: dict, roots: set[str]) -> None:
        """Span dump plus the derived self times and uncovered time."""
        other, covered_share = coverage(self.spans, roots)
        document = {
            "meta": meta,
            "self_time_s": dict(sorted(self_times(self.spans).items())),
            "other_s": other,
            "coverage": covered_share,
            "spans": [
                {"id": s.id, "name": s.name, "start_s": s.start,
                 "end_s": s.end, "parent": s.parent, "op": s.op,
                 "thread": s.thread, "attrs": s.attrs}
                for s in self.spans
            ],
        }
        path.write_text(json.dumps(document, default=str) + "\n")

    def write_chrome(self, path) -> None:
        """Chrome trace-event JSON (complete events, microseconds)."""
        origin = min((s.start for s in self.spans), default=0.0)
        threads = {tid: index for index, tid in enumerate(
            dict.fromkeys(s.thread for s in self.spans))}
        events = [
            {"name": s.name, "cat": s.name.split(".")[0], "ph": "X",
             "ts": (s.start - origin) * 1e6, "dur": s.duration * 1e6,
             "pid": 1, "tid": threads[s.thread],
             "args": {"op": s.op, "parent": s.parent, **s.attrs}}
            for s in self.spans
        ]
        path.write_text(json.dumps({"traceEvents": events}, default=str))


def _union_length(intervals: list[tuple[float, float]], lo: float,
                  hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start, end = max(start, cursor), min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def _children(spans: list[Span]) -> dict[int, list[Span]]:
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    return children


def _uncovered(span: Span, children: dict[int, list[Span]]) -> float:
    kids = [(c.start, c.end) for c in children.get(span.id, ())]
    return span.duration - _union_length(kids, span.start, span.end)


def span_self_times(spans: list[Span]) -> dict[int, float]:
    """Self time of every span (duration minus child coverage), by id."""
    children = _children(spans)
    return {span.id: _uncovered(span, children) for span in spans}


def self_times(spans: list[Span]) -> dict[str, float]:
    """Total self time per span name."""
    per_span = span_self_times(spans)
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        totals[span.name] += per_span[span.id]
    return dict(totals)


def coverage(spans: list[Span], roots: set[str]) -> tuple[float, float]:
    """``(other_s, share)`` over the operation root spans named ``roots``.

    ``other_s`` is the root time no named child span covers; ``share`` is
    the covered fraction of the roots' total duration.
    """
    children = _children(spans)
    root_spans = [s for s in spans if s.name in roots]
    total = sum(s.duration for s in root_spans)
    other = sum(_uncovered(s, children) for s in root_spans)
    return other, (1.0 - other / total) if total > 0 else 0.0
