"""In-memory spans recorded by the benchmark around calls into each layer.

A span is opened by the benchmark's own code, never inside ``repro``: the
traced run calls each layer's public function and wraps the call. Spans
stay in memory until the run ends.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: index of the enclosing span in the recorder's list, or None
    parent: int | None
    workload: str
    program: str

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """Collects one span per wrapped call, with counts at the same place."""

    def __init__(self, workload: str, clock=time.perf_counter):
        self.workload = workload
        self.program = ""
        self.spans: list[Span] = []
        #: counter name -> count summed over every program
        self.counts: dict[str, float] = {}
        self._clock = clock
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        index = len(self.spans)
        start = self._clock()
        self.spans.append(
            Span(name, start, start, parent, self.workload, self.program)
        )
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index].end = self._clock()

    def count(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def total(self, name: str, program: str | None = None) -> float:
        """Summed self time of every span called ``name``."""
        return sum(
            own
            for span, own in zip(self.spans, self_times(self.spans))
            if span.name == name and program in (None, span.program)
        )


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover.

    Children are clipped to the parent's interval and overlapping children
    are counted once, so the result never goes below zero.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        reach = span.start
        for child in sorted(children.get(index, ()), key=lambda s: s.start):
            lo = max(child.start, reach)
            hi = min(child.end, span.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(span.duration - covered)
    return out
