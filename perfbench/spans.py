"""In-memory span recorder and the summary statistics the benchmark prints.

Spans are recorded by the benchmark's own code around calls into each
layer of ``repro``; nothing inside ``src/`` is instrumented.  A span's
self time is its duration minus the part of its interval that its
children cover, where overlapping children are counted once.
"""

from __future__ import annotations

import statistics
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

#: percentiles a timing may be reported at, highest last
PERCENTILES = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)
#: samples that must lie beyond a percentile before it is reported
TAIL_SAMPLES = 10


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    index: int

    @property
    def duration(self) -> float:
        return self.end - self.start


@dataclass
class SpanRecorder:
    """Spans of one benchmark run plus the counts recorded beside them."""

    spans: List[Span] = field(default_factory=list)
    counts: Dict[str, List[float]] = field(default_factory=dict)
    _stack: List[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Time the body as a child of the innermost open span."""
        start = time.perf_counter()
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, start, start, parent, index))
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index].end = time.perf_counter()

    def add(self, name: str, start: float, end: float,
            parent: Optional[int] = None) -> Span:
        """Record an already-timed interval, e.g. one measured elsewhere."""
        span = Span(name, start, end, parent, len(self.spans))
        self.spans.append(span)
        return span

    def count(self, name: str, value: float) -> None:
        self.counts.setdefault(name, []).append(float(value))

    def self_time(self, span: Span) -> float:
        children = [(c.start, c.end) for c in self.spans
                    if c.parent == span.index]
        return span.duration - covered(children, span.start, span.end)

    def self_times(self, name: str) -> List[float]:
        return [self.self_time(s) for s in self.spans if s.name == name]


def covered(intervals: Sequence[Tuple[float, float]], lo: float,
            hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total = 0.0
    reach = lo
    for start, end in sorted(intervals):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail_percentile(n: int) -> Optional[float]:
    """The highest reportable percentile for ``n`` samples, or None.

    A percentile is reportable when at least :data:`TAIL_SAMPLES`
    samples lie beyond it.
    """
    supported = [p for p in PERCENTILES
                 if round(n * (100.0 - p), 6) >= 100 * TAIL_SAMPLES]
    return supported[-1] if supported else None


def percentile(values: Sequence[float], p: float) -> float:
    """Nearest-rank percentile of ``values``."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * p // 100))
    return float(ordered[int(rank) - 1])


def describe(name: str, values: Sequence[float], unit: str) -> str:
    """One diagnostic line: median, sample count, and the supported tail."""
    line = f"{name}: median {median(values):.4f} {unit} (n={len(values)}"
    p = tail_percentile(len(values))
    if p is None:
        return line + f", no tail percentile: needs n>={2 * TAIL_SAMPLES})"
    return line + f", p{p:g} {percentile(values, p):.4f} {unit})"
