"""Measurement helpers: percentiles, spans with self time, call wrappers, checks.

Nothing here imports the library under test, so the self-tests in
``test_measure.py`` run on synthetic inputs alone.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import statistics
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

#: A tail percentile is reported only with at least this many samples beyond it.
TAIL_MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """The ``q``-quantile (0 ≤ q ≤ 1) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    lower = math.floor(position)
    upper = min(lower + 1, len(ordered) - 1)
    return ordered[lower] + (ordered[upper] - ordered[lower]) * (position - lower)


def tail_percentile(values: Sequence[float], q: float) -> float | None:
    """The ``q``-quantile, or ``None`` unless ten samples lie beyond it."""
    beyond = math.floor(len(values) * (1.0 - q) + 1e-9)
    if beyond < TAIL_MIN_BEYOND:
        return None
    return percentile(values, q)


def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of ``[lo, hi]`` covered by the union of ``intervals``."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals if b > lo and a < hi)
    total, reach = 0.0, lo
    for start, end in clipped:
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its child spans cover."""
    return (end - start) - covered(children, start, end)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    tag: str | None = None
    attrs: dict[str, Any] = field(default_factory=dict)

    @property
    def ms(self) -> float:
        return (self.end - self.start) * 1e3


class SpanRecorder:
    """In-memory spans (name, start, end, parent) with a per-thread stack.

    ``tag`` labels every span opened while it is set — the workloads set it
    to the query shape being sent, so per-shape sums need no parent walk.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.tag: str | None = None
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str):
        stack = self._stack()
        record = Span(name, time.perf_counter(), parent=stack[-1] if stack else None, tag=self.tag)
        with self._lock:
            index = len(self.spans)
            self.spans.append(record)
        stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            stack.pop()

    def children(self, index: int) -> list[Span]:
        return [s for s in self.spans if s.parent == index]

    def self_ms(self, index: int) -> float:
        span = self.spans[index]
        kids = [(c.start, c.end) for c in self.children(index)]
        return self_time(span.start, span.end, kids) * 1e3

    def outermost(self, name: str) -> list[Span]:
        """Spans named ``name`` with no ancestor of the same name."""
        found = []
        for span in self.spans:
            if span.name != name:
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].name != name:
                parent = self.spans[parent].parent
            if parent is None:
                found.append(span)
        return found

    def to_json(self) -> list[dict[str, Any]]:
        return [
            {
                "name": s.name, "start": s.start, "end": s.end,
                "parent": s.parent, "tag": s.tag, **({"attrs": s.attrs} if s.attrs else {}),
            }
            for s in self.spans
        ]


@dataclass(frozen=True)
class Target:
    """One call to time: ``owner.attr`` (a class or module attribute)."""

    owner: Any
    attr: str
    span: str
    on_result: Callable[[Span, Any], None] | None = None


def install(recorder: SpanRecorder, targets: Sequence[Target]) -> Callable[[], None]:
    """Wrap every target in a span; returns the function that restores them."""
    originals = []
    for target in targets:
        original = vars(target.owner)[target.attr]
        originals.append((target.owner, target.attr, original))
        setattr(target.owner, target.attr, _wrapped(recorder, original, target))

    def restore() -> None:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)

    return restore


def _wrapped(recorder: SpanRecorder, fn: Callable, target: Target) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with recorder.span(target.span) as span:
            result = fn(*args, **kwargs)
            if target.on_result is not None:
                target.on_result(span, result)
            return result

    return wrapper


def ledger_exact(spent: float, charged: Sequence[float]) -> bool:
    """Whether a ledger's ``spent`` is exactly the in-order sum of its charges."""
    return spent == sum(charged)


def release_record(noisy_count: float, sensitivity: float) -> list[str]:
    """A bitwise view of one release (hex floats compare exactly)."""
    return [float(noisy_count).hex(), float(sensitivity).hex()]


def digest(records: Any) -> str:
    """A SHA-256 over the canonical JSON of ``records``."""
    payload = json.dumps(records, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def digest_matches(records: Any, expected: str | None) -> bool:
    """``True`` when no digest is recorded, else whether ``records`` hash to it."""
    return expected is None or digest(records) == expected


def hit_ratio(before: dict[str, int], after: dict[str, int]) -> float:
    """Hits over lookups between two cache-stat snapshots (0 with no lookups)."""
    hits = after["hits"] - before["hits"]
    lookups = hits + after["misses"] - before["misses"]
    return hits / lookups if lookups else 0.0
