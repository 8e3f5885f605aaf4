"""Event primitives for the schedule-execution engine.

A minimal, allocation-light discrete-event core: events carry a time, a kind
and an opaque payload; the queue pops them in ``(time, kind priority, seq)``
order.  The priority rank pins the relative order of *simultaneous* events:

* ``FAULT_END`` first -- a resource recovering at ``t`` is available to
  anything else happening at ``t``;
* ``FAULT_START`` second -- a fault beginning at ``t`` hits every stream or
  service that starts at the same instant;
* everything else afterwards, in insertion order (``seq`` is assigned by the
  queue, so equal-time, equal-priority events replay in the deterministic
  order the engine pushed them).

This total order is part of the replay contract: fault injection and
contingency re-scheduling rely on traces being stable across runs, so the tie-break is pinned by regression tests rather
than left to incidental heap behaviour.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass
from typing import Any

from repro.errors import SimulationError


class EventKind(enum.Enum):
    """What happened at a point in simulated time."""

    STREAM_START = "stream_start"  # a delivery's flow begins at its source
    STREAM_END = "stream_end"  # the flow's last block leaves the source
    SERVICE_START = "service_start"  # a user's playback begins
    SERVICE_END = "service_end"  # a user's playback completes
    CACHE_OPEN = "cache_open"  # a residency starts filling
    CACHE_LAST_SERVICE = "cache_last_service"  # the residency's final reader starts
    CACHE_RELEASE = "cache_release"  # the last block is dropped
    FAULT_START = "fault_start"  # a resource fault begins (availability drops)
    FAULT_END = "fault_end"  # the faulted resource recovers


#: Same-timestamp replay ranks; unlisted kinds share the default rank 2.
_KIND_PRIORITY = {
    EventKind.FAULT_END: 0,
    EventKind.FAULT_START: 1,
}
_DEFAULT_PRIORITY = 2


def kind_priority(kind: EventKind) -> int:
    """Same-timestamp replay rank of ``kind`` (lower pops first)."""
    return _KIND_PRIORITY.get(kind, _DEFAULT_PRIORITY)


@dataclass(frozen=True)
class Event:
    """One timestamped simulation event.

    Ordering is by ``(time, kind priority, seq)``; ``seq`` is assigned by
    the queue so equal-time, equal-priority events pop in insertion order.
    """

    time: float
    seq: int
    kind: EventKind
    payload: Any = None

    def __post_init__(self) -> None:
        if not math.isfinite(self.time):
            raise SimulationError(f"event time must be finite, got {self.time}")

    @property
    def priority(self) -> int:
        """Same-timestamp rank (faults end, then start, then everything)."""
        return kind_priority(self.kind)

    @property
    def sort_key(self) -> tuple[float, int, int]:
        return (self.time, self.priority, self.seq)

    def __lt__(self, other: "Event") -> bool:
        if not isinstance(other, Event):
            return NotImplemented
        return self.sort_key < other.sort_key


class EventQueue:
    """Deterministic time-ordered event queue.

    The heap holds ``(time, priority, seq, event)`` tuples: ``seq`` is
    unique, so tuple comparison settles on the first three numbers and
    never reaches :meth:`Event.__lt__` -- the same order, without a
    property chain per comparison.
    """

    def __init__(self) -> None:
        self._heap: list[tuple[float, int, int, Event]] = []
        self._counter = itertools.count()

    def push(self, time: float, kind: EventKind, payload: Any = None) -> Event:
        seq = next(self._counter)
        ev = Event(time, seq, kind, payload)
        heapq.heappush(
            self._heap,
            (time, _KIND_PRIORITY.get(kind, _DEFAULT_PRIORITY), seq, ev),
        )
        return ev

    def pop(self) -> Event:
        if not self._heap:
            raise SimulationError("pop from an empty event queue")
        return heapq.heappop(self._heap)[3]

    def __len__(self) -> int:
        return len(self._heap)

    def __bool__(self) -> bool:
        return bool(self._heap)

    @property
    def next_time(self) -> float:
        if not self._heap:
            raise SimulationError("empty event queue has no next_time")
        return self._heap[0][0]

    def drain(self) -> list[Event]:
        """Pop everything, returning the chronological trace."""
        out = []
        while self._heap:
            out.append(heapq.heappop(self._heap)[3])
        return out
