"""In-memory span tracing for the traced benchmark run.

A span is ``[name, start, end, parent, n]``: the layer-qualified name, two
``perf_counter`` readings, the index of the enclosing span (-1 at the top)
and an optional work count (rows embedded, steps, bytes, ...; None when it
could not be taken). Spans come
from two places, both in this directory:

* the benchmark's own calls into each module (``Tracer.span``);
* calls one fairkd module makes into another, seen by temporarily rebinding
  the public name the caller looks up (``Tracer.wrap``). ``Tracer.unwrap_all``
  restores every original binding.

A name that cannot be found (a later version removed or renamed it) is
recorded in ``Tracer.absent``; metrics built on it report ``None`` so the
report says "absent" instead of a misleading zero, and the time it used to
take shows up in the self time of the enclosing span.
"""

from __future__ import annotations

import os
import statistics
from contextlib import contextmanager
from time import perf_counter


class NullTracer:
    """Stand-in for untraced iterations: span() records nothing."""

    @contextmanager
    def span(self, name, n=0):
        yield [name, 0.0, 0.0, -1, n]


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name, n=0):
        rec = [name, perf_counter(), 0.0,
               self._stack[-1] if self._stack else -1, n]
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec[2] = perf_counter()
            self._stack.pop()

    def wrap(self, owner, attr: str, name: str, count=None, after=None):
        """Rebind ``owner.attr`` to a spanning wrapper.

        count(args) gives the span's work count before the call; after(args,
        result, rec) may fill it in afterwards. When the attribute does not
        exist the name is recorded as absent instead.
        """
        original = getattr(owner, attr, None)
        if original is None:
            self.absent.add(name)
            return
        spans, stack = self.spans, self._stack

        # Inlined rather than built on span(): this runs once per SGD step
        # and per scored pair, so its cost is most of the tracing overhead.
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1,
                   count(args) if count else 0]
            spans.append(rec)
            stack.append(len(spans) - 1)
            rec[1] = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(args, result, rec)
            return result

        traced.__wrapped__ = original
        setattr(owner, attr, traced)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def tail(samples) -> tuple[str, float]:
    """The highest of p99/p95/p90/p75/p50 with >= 10 samples beyond it.

    Returns (label, value); with fewer than 20 samples no percentile
    qualifies and the maximum is returned as ("max", value).
    """
    n = len(samples)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) >= 1000:
            cuts = statistics.quantiles(samples, n=100, method="inclusive")
            return f"p{p}", cuts[p - 1]
    return "max", max(samples)


def rows_of(x) -> int:
    shape = getattr(x, "shape", None)
    if shape is None or len(shape) < 2:
        return 1
    return int(shape[0])


def file_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


class SpanIndex:
    """Queries over a finished trace."""

    def __init__(self, tracer: Tracer, under: str | None = None):
        """Index all spans, or only those with an ancestor named under."""
        self.spans = tracer.spans
        self.absent = tracer.absent
        self._children: dict[int, list[int]] = {}
        for i, s in enumerate(self.spans):
            self._children.setdefault(s[3], []).append(i)
        self._kept = [under is None or self._has_ancestor(s, under)
                      for s in self.spans]
        self._by_name: dict[str, list[list]] = {}
        for s, kept in zip(self.spans, self._kept):
            if kept:
                self._by_name.setdefault(s[0], []).append(s)

    def select(self, name: str, under: str | None = None) -> list[list]:
        """Kept spans called name, optionally only those under a span named under."""
        return [s for s in self._by_name.get(name, ())
                if under is None or self._has_ancestor(s, under)]

    def _has_ancestor(self, s, name) -> bool:
        p = s[3]
        while p >= 0:
            if self.spans[p][0] == name:
                return True
            p = self.spans[p][3]
        return False

    def self_time(self, names) -> float:
        """Total duration of kept spans in names minus their direct children."""
        total = 0.0
        for i, s in enumerate(self.spans):
            if s[0] not in names or not self._kept[i]:
                continue
            child = sum(self.spans[c][2] - self.spans[c][1]
                        for c in self._children.get(i, ()))
            total += (s[2] - s[1]) - child
        return total

    # --------------------------------------------------------- reductions

    def total_s(self, name, under=None):
        if name in self.absent:
            return None
        return sum(s[2] - s[1] for s in self.select(name, under))

    def median_s(self, name, under=None):
        if name in self.absent:
            return None
        d = [s[2] - s[1] for s in self.select(name, under)]
        return statistics.median(d) if d else 0.0

    def median_us(self, name, under=None):
        m = self.median_s(name, under)
        return None if m is None else 1e6 * m

    def count(self, name, under=None):
        if name in self.absent:
            return None
        return len(self.select(name, under))

    def sum_n(self, name, under=None):
        """Sum of the work counts; None if any count could not be taken."""
        if name in self.absent:
            return None
        ns = [s[4] for s in self.select(name, under)]
        return None if any(n is None for n in ns) else sum(ns)
