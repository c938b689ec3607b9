"""Request-scoped tracing: trace ids, nested spans, wall/CPU timings.

A *trace* is the tree of timed spans produced while serving one request
(``/count``, ``/batch``, a CLI invocation).  The design goals, in order:

1. **Near-zero cost without a trace.**  Tracing is *ambient*: the serving
   stages and lower layers (the batch executor, the shared-lattice
   profiler) call the module-level :func:`span` without knowing whether
   anyone is listening.  When no trace is active — the common case, since
   per-request timing breakdowns are opt-in — :func:`span` returns a shared
   no-op context manager after a single ``ContextVar.get``.
2. **Correct nesting across threads.**  The ambient span lives in a
   :class:`contextvars.ContextVar`, so concurrent requests on different
   threads never see each other's spans.  Each request runs entirely on
   the thread that received it, so its spans nest without any hand-off.
3. **Spans always close.**  :class:`Span` is only ever used as a context
   manager; an exception inside marks the span ``status="error"`` (with the
   exception text) and still records a non-negative duration.

Span taxonomy and attribute conventions are documented in
``docs/observability.md``.
"""

from __future__ import annotations

import itertools
import threading
import time
import uuid
from contextvars import ContextVar
from typing import Any, Iterator

__all__ = [
    "NULL_SPAN",
    "Span",
    "Tracer",
    "current_span",
    "span",
]

#: The ambient span of the current logical context (``None``: tracing off).
_CURRENT_SPAN: ContextVar["Span | None"] = ContextVar("repro_obs_span", default=None)

#: Process-wide span-id sequence (unique within a process, cheap to draw).
_SPAN_IDS = itertools.count(1)


def _new_trace_id() -> str:
    """A fresh 16-hex-digit trace id."""
    return uuid.uuid4().hex[:16]


class Span:
    """One timed operation: a name, wall/CPU clocks, attributes, children.

    Create spans through :class:`Tracer.trace` (roots) or :func:`span`
    (children of the ambient span); both return context managers.  A span
    records:

    ``trace_id`` / ``span_id`` / ``parent_id``
        The request-scoped trace id (shared by the whole tree), this span's
        id, and the parent span's id (``None`` for the root).
    ``duration_ms`` / ``cpu_ms``
        Wall time (``perf_counter``) and CPU time (``process_time``) between
        ``__enter__`` and ``__exit__``; both are clamped non-negative.
    ``attributes``
        Arbitrary JSON-serialisable key/values (``set`` merges).
    ``status`` / ``error``
        ``"ok"``, or ``"error"`` plus the exception text when the body
        raised.
    """

    __slots__ = (
        "name",
        "trace_id",
        "span_id",
        "parent_id",
        "attributes",
        "children",
        "status",
        "error",
        "duration_ms",
        "cpu_ms",
        "_wall_start",
        "_cpu_start",
        "_token",
        "_lock",
    )

    def __init__(
        self,
        name: str,
        *,
        trace_id: str | None = None,
        parent: "Span | None" = None,
        attributes: dict[str, Any] | None = None,
    ):
        self.name = name
        self.trace_id = trace_id if trace_id is not None else _new_trace_id()
        self.span_id = next(_SPAN_IDS)
        self.parent_id = parent.span_id if parent is not None else None
        self.attributes: dict[str, Any] = dict(attributes or {})
        self.children: list[Span] = []
        self.status = "ok"
        self.error: str | None = None
        self.duration_ms: float | None = None
        self.cpu_ms: float | None = None
        self._wall_start: float | None = None
        self._cpu_start: float | None = None
        self._token = None
        # Guards ``children``, so a span tree can be read on another thread
        # while its request is still appending to it.
        self._lock = threading.Lock()

    # -- context manager ------------------------------------------------ #
    def __enter__(self) -> "Span":
        self._wall_start = time.perf_counter()
        self._cpu_start = time.process_time()
        self._token = _CURRENT_SPAN.set(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        if self._token is not None:
            _CURRENT_SPAN.reset(self._token)
            self._token = None
        self.duration_ms = max(0.0, (time.perf_counter() - self._wall_start) * 1e3)
        self.cpu_ms = max(0.0, (time.process_time() - self._cpu_start) * 1e3)
        if exc is not None:
            self.status = "error"
            self.error = f"{type(exc).__name__}: {exc}"
        return False  # never swallow

    # -- recording ------------------------------------------------------ #
    def set(self, **attributes: Any) -> "Span":
        """Merge attributes into the span; returns the span for chaining."""
        self.attributes.update(attributes)
        return self

    def child(self, name: str, **attributes: Any) -> "Span":
        """A new child span (enter it with ``with``)."""
        child = Span(name, trace_id=self.trace_id, parent=self, attributes=attributes)
        with self._lock:
            self.children.append(child)
        return child

    # -- views ----------------------------------------------------------- #
    @property
    def closed(self) -> bool:
        """Whether the span has recorded its duration."""
        return self.duration_ms is not None

    def to_dict(self) -> dict[str, Any]:
        """A JSON-serialisable view of the span tree rooted here."""
        with self._lock:
            children = list(self.children)
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "status": self.status,
            "error": self.error,
            "duration_ms": self.duration_ms,
            "cpu_ms": self.cpu_ms,
            "attributes": dict(self.attributes),
            "children": [child.to_dict() for child in children],
        }

    def walk(self) -> Iterator["Span"]:
        """Yield this span and every descendant (depth-first)."""
        yield self
        with self._lock:
            children = list(self.children)
        for child in children:
            yield from child.walk()

    def stage_timings(self) -> dict[str, float]:
        """Per-direct-child wall-time breakdown summing exactly to the total.

        Children sharing a name are summed; the remainder of the root's wall
        time not covered by any child is reported under ``"other"``, so
        ``sum(values) == total`` (the contract the opt-in per-request
        ``timings`` block relies on).  Only meaningful on a closed span.
        """
        total = self.duration_ms or 0.0
        stages: dict[str, float] = {}
        with self._lock:
            children = list(self.children)
        for child in children:
            stages[child.name] = stages.get(child.name, 0.0) + (child.duration_ms or 0.0)
        stages["other"] = max(0.0, total - sum(stages.values()))
        stages["total"] = total
        return stages


class _NullSpan:
    """The shared do-nothing span used when no trace is active."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False

    def set(self, **attributes: Any) -> "_NullSpan":  # noqa: ARG002 - no-op
        return self


NULL_SPAN = _NullSpan()


def current_span() -> Span | None:
    """The ambient span of the calling context (``None``: tracing off)."""
    return _CURRENT_SPAN.get()


def span(name: str, **attributes: Any):
    """A child span of the ambient span — or a shared no-op without one.

    The single tracing entry point for the lower layers (executor, profiler,
    engine): always safe to call, near-free when nobody asked for a trace.
    """
    parent = _CURRENT_SPAN.get()
    if parent is None:
        return NULL_SPAN
    return parent.child(name, **attributes)


class Tracer:
    """Creates root spans and counts traces.

    One tracer per :class:`~repro.service.service.PrivateQueryService`.
    """

    def __init__(self):
        self._traces_started = 0
        self._lock = threading.Lock()

    def trace(self, name: str, **attributes: Any) -> Span:
        """A new root span (fresh trace id).

        If an ambient span is already active (e.g. a ``/batch`` item running
        inside the batch trace), the "root" attaches as its child instead of
        starting a disconnected second trace.
        """
        with self._lock:
            self._traces_started += 1
        parent = _CURRENT_SPAN.get()
        if parent is not None:
            return parent.child(name, **attributes)
        return Span(name, attributes=dict(attributes))

    @property
    def traces_started(self) -> int:
        """Number of root spans handed out."""
        with self._lock:
            return self._traces_started
