"""Timing statistics and the span tracer of the benchmark.

Nothing here imports trimova.  The tracer records spans around calls into
the program from outside: ``Tracer.wrap`` replaces a module or class
attribute with a recording wrapper and ``Tracer.restore`` (or leaving the
``with`` block) puts every original back.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass


def percentile(values, q: float) -> float:
    """The q-th percentile (0..100), interpolating linearly between ranks."""
    xs = sorted(values)
    if not xs:
        raise ValueError("percentile of no values")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile {q} outside 0..100")
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, quartiles as ``statistics.quantiles(n=4)`` gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


@dataclass
class Span:
    """One timed call: perf_counter start/end, parent span index, op id."""

    name: str
    start: float
    end: float
    parent: int | None
    op: int | None
    count: float | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover.

    Children may overlap each other; the covered time is the length of the
    union of their intervals, clipped to the parent.
    """
    children: list[list[Span]] = [[] for _ in spans]
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for span, kids in zip(spans, children):
        covered = 0.0
        reach = span.start
        for kid in sorted(kids, key=lambda s: s.start):
            lo, hi = max(kid.start, reach), min(kid.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out


def subtree(spans: list[Span], root: int) -> list[int]:
    """Indices of ``root`` and all its descendants (parents precede children)."""
    inside = {root}
    for i in range(root + 1, len(spans)):
        if spans[i].parent in inside:
            inside.add(i)
    return sorted(inside)


class Tracer:
    """In-memory span recorder with attribute wrapping that can be undone."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, math.nan, math.nan, parent, self.op))
        self._stack.append(index)
        self.spans[index].start = self.clock()
        return index

    def _close(self, index: int) -> None:
        self.spans[index].end = self.clock()
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {index} closed out of order ({popped})")

    @contextmanager
    def span(self, name: str, op: int | None = None):
        """Record the enclosed block as one span; ``op`` tags it and its children."""
        outer_op = self.op
        if op is not None:
            self.op = op
        index = self._open(name)
        try:
            yield
        finally:
            self._close(index)
            self.op = outer_op

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a wrapper recording a span ``name``.

        ``count(args, kwargs, result)``, if given, is evaluated after the span
        closes and stored on it.
        """
        original = vars(owner)[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            index = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(index)
            if count is not None:
                tracer.spans[index].count = count(args, kwargs, result)
            return result

        setattr(owner, attr, traced)
        self._patches.append((owner, attr, original))

    def restore(self) -> None:
        """Put back every wrapped attribute, last wrapped first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
