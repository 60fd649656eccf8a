"""Span recorder and percentile helper for the pipeline benchmark (stdlib only).

A :class:`Tracer` records one :class:`Span` per call the benchmark makes
into a layer: its name (the per-layer metric prefix, e.g.
``serving.estimate_subplans``), start and end on the ``perf_counter`` clock,
the index of the span that caused it, and the id of the request it belongs
to.  Spans opened inside another span on the same thread become its
children and inherit its request id.  Spans stay in memory until
:meth:`Tracer.write` dumps them at the end of a run.

:data:`NULL_TRACER` has the same interface and records nothing, so the
untraced run executes exactly the same calls as the traced one.
"""

from __future__ import annotations

import json
import math
import threading
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Iterator, Sequence

__all__ = ["Span", "Tracer", "NULL_TRACER", "self_times", "percentile"]


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    request: int | None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans from any number of threads."""

    enabled = True

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()

    @contextmanager
    def span(self, name: str, request: int | None = None) -> Iterator[None]:
        stack = self._local.__dict__.setdefault("stack", [])
        parent = stack[-1] if stack else None
        if request is None and parent is not None:
            request = self.spans[parent].request
        record = Span(name, time.perf_counter(), math.nan, parent, request)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def write(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = {
            "spans": [
                {**asdict(span), "self": own}
                for span, own in zip(self.spans, self_times(self.spans))
            ]
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")
        return path


class _NullTracer:
    """A tracer that records nothing (the untraced run)."""

    enabled = False
    spans: list[Span] = []

    def span(self, name: str, request: int | None = None):
        return nullcontext()


NULL_TRACER = _NullTracer()


def self_times(spans: Sequence[Span]) -> list[float]:
    """Each span's duration minus the part of it that its children cover.

    Children of one span may overlap (spans opened from other threads under
    the same parent), so the covered part is the union of their intervals
    clipped to the parent, not the sum of their durations.
    """
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)
    result = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for child in sorted(children.get(index, ()), key=lambda child: child.start):
            start = max(child.start, cursor)
            end = min(child.end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        result.append(span.duration - covered)
    return result


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-th percentile (linear interpolation, as numpy's default).

    A tail percentile is reported only when at least ten samples lie beyond
    it, so p99 needs 1000 samples and p95 needs 200; below that a
    ``ValueError`` is raised instead of a number that one outlier decides.
    """
    if not 0.0 <= q <= 100.0:
        raise ValueError("q must lie in [0, 100]")
    count = len(values)
    if count == 0:
        raise ValueError("no samples")
    if q > 50.0 and count * (100.0 - q) / 100.0 < 10.0 - 1e-9:
        raise ValueError(
            f"p{q:g} needs at least {math.ceil(1000.0 / (100.0 - q))} samples "
            f"for ten beyond it; got {count}"
        )
    ordered = sorted(values)
    position = (count - 1) * q / 100.0
    low = math.floor(position)
    high = min(low + 1, count - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)
