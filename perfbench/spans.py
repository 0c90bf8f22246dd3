"""Spans and counters recorded from outside the program.

A :class:`Tracer` wraps functions with span recorders: each call appends
one span (name, start, end, parent) to an in-memory list, and the list is
written out when the benchmark ends.  The tracer knows nothing about
conicflow; :mod:`layers` decides what to wrap.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from dataclasses import asdict, dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None  # index of the enclosing span in the same list

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Span list plus named counters for one traced run."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: Counter = Counter()
        self._stack: list[int] = []

    def wrap(self, name: str, fn, on_enter=None):
        """Return ``fn`` recording a span named ``name`` around each call;
        ``on_enter`` (if given) runs first with the call's arguments."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if on_enter is not None:
                on_enter(*args, **kwargs)
            sid = len(self.spans)
            span = Span(name, 0.0, 0.0, self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(sid)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self._stack.pop()

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of its interval that its child
    spans cover (overlapping children are counted once)."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = []
    for i, s in enumerate(spans):
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(i, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out.append(s.duration - covered)
    return out


@dataclass
class NameTotals:
    calls: int = 0
    inclusive_s: float = 0.0  # outermost spans only, so recursion is not double-counted
    self_s: float = 0.0


def totals_by_name(spans: list[Span]) -> dict[str, NameTotals]:
    selfs = self_times(spans)
    out: dict[str, NameTotals] = {}
    for i, s in enumerate(spans):
        t = out.setdefault(s.name, NameTotals())
        t.calls += 1
        t.self_s += selfs[i]
        p = s.parent
        while p is not None and spans[p].name != s.name:
            p = spans[p].parent
        if p is None:
            t.inclusive_s += s.duration
    return out


def spans_as_dicts(spans: list[Span], t0: float = 0.0) -> list[dict]:
    """JSON-ready spans with times relative to ``t0``."""
    out = []
    for i, s in enumerate(spans):
        d = asdict(s)
        d["id"] = i
        d["start"] -= t0
        d["end"] -= t0
        out.append(d)
    return out
