"""In-memory span tracing installed from outside the package.

:class:`Tracer` wraps a function so each call records a span (name, start,
end, parent span) or, for hot leaf functions, only bumps a counter keyed by
the enclosing span's name.  :func:`install` replaces a function on every
``priosynth`` module that binds it, so callers that imported the name see
the wrapper too, and returns an undo list for :func:`uninstall`.  Nothing
here changes arguments or results, which the benchmark proves by hashing
the traced run's artifacts against an untraced run.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Iterable, Sequence


class Span:
    """One call.  ``parent`` is the index of the enclosing span or -1;
    ``meta`` is taken from the arguments before the call and ``result`` from
    the return value after it."""

    __slots__ = ("name", "start", "end", "parent", "meta", "result")

    def __init__(self, name: str, start: float, end: float, parent: int, meta=None, result=None):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.meta = meta
        self.result = result


class Tracer:
    """Collects spans and counts for one traced run, single-threaded."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def timed(self, name: str, fn: Callable, meta: Callable | None = None, result: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def wrapper(*args, **kwargs):
            span = Span(name, 0.0, 0.0, stack[-1] if stack else -1, meta(*args) if meta else None)
            stack.append(len(spans))
            spans.append(span)
            span.start = clock()
            try:
                value = fn(*args, **kwargs)
            finally:
                span.end = clock()
                stack.pop()
            if result is not None:
                span.result = result(value)
            return value

        wrapper.__wrapped__ = fn
        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        spans, stack, counts = self.spans, self._stack, self.counts

        def wrapper(*args, **kwargs):
            counts[(name, spans[stack[-1]].name if stack else "")] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper


def install(tracer: Tracer, targets: Iterable[tuple]) -> list[tuple[object, str, object]]:
    """Wrap each target and return what to restore.

    A target is ``(owner, attr, name, kind, meta, result)``.  ``owner`` is a
    module or a class; kind ``"span"`` records spans, ``"count"`` counts.
    A module-level function is replaced on every loaded ``priosynth`` module
    that binds the same object, under any attribute name."""
    undo: list[tuple[object, str, object]] = []
    modules = [mod for key, mod in sorted(sys.modules.items()) if key == "priosynth" or key.startswith("priosynth.")]
    for owner, attr, name, kind, meta, result in targets:
        original = owner.__dict__[attr]
        wrapped = tracer.timed(name, original, meta, result) if kind == "span" else tracer.counted(name, original)
        if isinstance(owner, type):
            sites = [(owner, attr)]
        else:
            sites = [(mod, key) for mod in modules for key, value in vars(mod).items() if value is original]
        for site, key in sites:
            undo.append((site, key, original))
            setattr(site, key, wrapped)
    return undo


def uninstall(undo: Sequence[tuple[object, str, object]]) -> None:
    for site, key, original in reversed(undo):
        setattr(site, key, original)


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its direct children
    cover (overlapping children are merged, and clipped to the parent)."""
    children: list[list[int]] = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for lo, hi in sorted((spans[c].start, spans[c].end) for c in children[index]):
            lo, hi = max(lo, reach), min(hi, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((span.end - span.start) - covered)
    return out


def outermost(spans: Sequence[Span]) -> list[bool]:
    """True for spans with no ancestor of the same name, so summing their
    durations never counts recursive time twice."""
    flags = []
    for span in spans:
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        flags.append(parent < 0)
    return flags


def under(spans: Sequence[Span], name: str) -> list[bool]:
    """True for spans that have an ancestor called ``name``.  Parents are
    recorded before their children, so one forward pass suffices."""
    flags: list[bool] = []
    for span in spans:
        parent = span.parent
        flags.append(parent >= 0 and (flags[parent] or spans[parent].name == name))
    return flags


def aggregate(spans: Sequence[Span]) -> dict[str, dict[str, float]]:
    """Per span name: ``calls``, inclusive seconds ``s`` and ``self_s``."""
    selfs = self_times(spans)
    top = outermost(spans)
    table: dict[str, dict[str, float]] = {}
    for index, span in enumerate(spans):
        row = table.setdefault(span.name, {"calls": 0, "s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += selfs[index]
        if top[index]:
            row["s"] += span.end - span.start
    return table
