"""Spans recorded from the benchmark's side of each layer boundary.

The benchmark times calls into each layer's public functions; nothing
inside ``repro`` is instrumented.  A :class:`Tracer` keeps its spans in
memory and turns them into per-layer *self* times: a span's duration
minus the part its child spans cover.  A disabled tracer records
nothing, so the untraced run executes the same calls without the
clock reads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, TypeVar

T = TypeVar("T")


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: Optional[int]
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


class Tracer:
    """An in-memory span recorder on the monotonic clock."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._open: List[int] = []

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        if not self.enabled:
            yield
            return
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent))
        index = len(self.spans) - 1
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            span = self.spans[index]
            span.end = time.perf_counter()
            if parent is not None:
                self.spans[parent].children_s += span.duration

    def timed_iter(self, name: str, items: Iterable[T]) -> Iterator[T]:
        """Yield from ``items``, recording the time spent producing each
        item as one span ``name`` (summed over all items).

        The producer's time is charged to ``name`` and subtracted from
        the consumer's span, which is how a lazy stream's generation is
        separated from the loader that drains it.
        """
        if not self.enabled:
            yield from items
            return
        parent = self._open[-1] if self._open else None
        iterator = iter(items)
        total = 0.0
        clock = time.perf_counter
        start = clock()
        try:
            while True:
                before = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    total += clock() - before
                    return
                total += clock() - before
                yield item
        finally:
            # One synthetic span carrying the summed producer time, so
            # self times stay a plain duration-minus-children sum.
            self.spans.append(Span(name, start, start + total, parent))
            if parent is not None:
                self.spans[parent].children_s += total

    def self_times(self) -> Dict[str, float]:
        """Self time per span name, summed over all its spans."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.self_time
        return totals
