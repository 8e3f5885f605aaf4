"""Span-based tracing for the scheduling pipeline.

A *span* is one timed region of the pipeline -- a Phase-1 solve, one
SORP round, a simulation run -- recorded as an immutable
:class:`SpanRecord`.  Usage::

    with tracer.span("ivsp.video", video=video_id, requests=n) as span:
        fs = scheduler.schedule_file(...)
        span.set(deliveries=len(fs.deliveries))

Spans nest: the tracer keeps an active-span stack, so each record knows
its parent span's name.  Span *counts and attributes* are deterministic
for a seeded batch (they describe the work graph); *durations* are wall
time and are intentionally kept out of the metrics registry so that
registry snapshots of two runs compare bit-exactly.

:class:`NullTracer` is the default everywhere: ``span()`` returns one
shared inert context manager, so disabled tracing costs a method call
and never allocates per span.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Any, Callable


@dataclass(frozen=True)
class SpanRecord:
    """One finished span.

    ``span_id``/``parent_id`` stitch the records into a tree: ids are
    small integers allocated in span-open order (1-based; ``parent_id``
    0 marks a root).  The tree is the input of the critical-path reducer
    (:mod:`repro.obs.critpath`).  ``parent`` keeps the enclosing span's
    *name* for human-readable filtering.
    """

    name: str
    start: float  # seconds since the tracer's epoch (perf_counter domain)
    duration: float  # seconds
    parent: str | None = None
    attrs: tuple[tuple[str, Any], ...] = ()
    span_id: int = 0
    parent_id: int = 0

    @property
    def attributes(self) -> dict[str, Any]:
        return dict(self.attrs)

    def to_dict(self) -> dict[str, Any]:
        """JSON-serializable form (one JSONL line in trace exports)."""
        return {
            "name": self.name,
            "start": self.start,
            "duration": self.duration,
            "parent": self.parent,
            "attrs": self.attributes,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
        }


class _ActiveSpan:
    """Context manager that measures one region and records it on exit."""

    __slots__ = ("_tracer", "_name", "_attrs", "_t0", "_parent", "_span_id",
                 "_parent_id")

    def __init__(self, tracer: "Tracer", name: str, attrs: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._attrs = attrs
        self._t0 = 0.0
        self._parent: str | None = None
        self._span_id = 0
        self._parent_id = 0

    def set(self, **attrs: Any) -> None:
        """Attach attributes discovered while the span is open."""
        self._attrs.update(attrs)

    def __enter__(self) -> "_ActiveSpan":
        tracer = self._tracer
        stack = tracer._stack
        self._parent = stack[-1] if stack else None
        self._parent_id = tracer._id_stack[-1] if tracer._id_stack else 0
        self._span_id = tracer._next_id
        tracer._next_id += 1
        stack.append(self._name)
        tracer._id_stack.append(self._span_id)
        self._t0 = tracer._clock()
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        t1 = self._tracer._clock()
        self._tracer._stack.pop()
        self._tracer._id_stack.pop()
        if exc_type is not None:
            self._attrs.setdefault("error", exc_type.__name__)
        self._tracer._records.append(
            SpanRecord(
                name=self._name,
                start=self._t0 - self._tracer._epoch,
                duration=t1 - self._t0,
                parent=self._parent,
                attrs=tuple(sorted(self._attrs.items())),
                span_id=self._span_id,
                parent_id=self._parent_id,
            )
        )
        return False


class Tracer:
    """Collects :class:`SpanRecord` instances for one run.

    Args:
        clock: Monotonic time source (seconds); injectable for
            deterministic tests.  Defaults to :func:`time.perf_counter`.
    """

    enabled = True

    def __init__(self, clock: Callable[[], float] | None = None):
        self._clock = clock if clock is not None else time.perf_counter
        self._epoch = self._clock()
        self._records: list[SpanRecord] = []
        self._stack: list[str] = []
        self._id_stack: list[int] = []
        self._next_id = 1

    def span(self, name: str, **attrs: Any) -> _ActiveSpan:
        return _ActiveSpan(self, name, attrs)

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        """Finished spans in completion order."""
        return tuple(self._records)

    def counts(self) -> dict[str, int]:
        """Span count per name (deterministic for a seeded batch)."""
        out: dict[str, int] = {}
        for r in self._records:
            out[r.name] = out.get(r.name, 0) + 1
        return dict(sorted(out.items()))


class _NullSpan:
    __slots__ = ()

    def set(self, **attrs: Any) -> None:
        pass

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Inert tracer: one shared span object, records nothing."""

    enabled = False

    def span(self, name: str, **attrs: Any) -> _NullSpan:
        return _NULL_SPAN

    @property
    def records(self) -> tuple[SpanRecord, ...]:
        return ()

    def counts(self) -> dict[str, int]:
        return {}


NULL_TRACER = NullTracer()
