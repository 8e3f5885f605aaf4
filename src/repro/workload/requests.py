"""Request data model.

A user request carries exactly the paper's three attributes --
``(user_id, video_id, starting_time)`` -- plus the user's *local*
intermediate storage, which the paper treats as uniquely determined by the
user's neighborhood ("the path between the user and its local intermediate
storage is uniquely defined", Sec. 2.1).  Carrying it on the request saves
every consumer a user->neighborhood lookup.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass

from repro.errors import WorkloadError


@dataclass(frozen=True)
class Request:
    """One Video-On-Reservation request.

    Ordering is by ``start_time`` first (then the other fields as
    tie-breakers), so a sorted container of requests is chronological, the
    order in which the greedy scheduler consumes them.  The comparisons
    are the field-tuple order ``dataclass(order=True)`` would generate,
    written out so that the common case, distinct start times, builds no
    tuples.
    """

    start_time: float
    video_id: str
    user_id: str
    local_storage: str

    def _tail(self) -> tuple[str, str, str]:
        return (self.video_id, self.user_id, self.local_storage)

    def __lt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.start_time != other.start_time:
            return self.start_time < other.start_time
        return self._tail() < other._tail()

    def __le__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.start_time != other.start_time:
            return self.start_time < other.start_time
        return self._tail() <= other._tail()

    def __gt__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.start_time != other.start_time:
            return self.start_time > other.start_time
        return self._tail() > other._tail()

    def __ge__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        if self.start_time != other.start_time:
            return self.start_time > other.start_time
        return self._tail() >= other._tail()

    def __post_init__(self) -> None:
        if not math.isfinite(self.start_time):
            raise WorkloadError(f"start_time must be finite, got {self.start_time}")
        for name, value in (
            ("video_id", self.video_id),
            ("user_id", self.user_id),
            ("local_storage", self.local_storage),
        ):
            if not value:
                raise WorkloadError(f"{name} must be non-empty")


class RequestBatch:
    """The full request set for one scheduling cycle, kept chronological.

    Provides the partition ``R_i`` by video id that the IVSP phase consumes
    (paper Sec. 3.2: "the scheduler collects the requests for the cycle and
    partitions them into sets R_i").
    """

    def __init__(self, requests: Iterable[Request] = ()):
        self._requests: list[Request] = sorted(requests)
        self._by_video: dict[str, list[Request]] | None = None

    def add(self, request: Request) -> None:
        """Insert a request, keeping chronological order."""
        import bisect

        bisect.insort(self._requests, request)
        self._by_video = None

    def __len__(self) -> int:
        return len(self._requests)

    def __iter__(self) -> Iterator[Request]:
        return iter(self._requests)

    def __getitem__(self, idx: int) -> Request:
        return self._requests[idx]

    @property
    def video_ids(self) -> list[str]:
        """Distinct requested video ids, in first-request order."""
        seen: dict[str, None] = {}
        for r in self._requests:
            seen.setdefault(r.video_id, None)
        return list(seen)

    def by_video(self) -> dict[str, list[Request]]:
        """Partition ``R_i``: video id -> chronologically sorted requests."""
        if self._by_video is None:
            parts: dict[str, list[Request]] = {}
            for r in self._requests:
                parts.setdefault(r.video_id, []).append(r)
            self._by_video = parts
        return {k: list(v) for k, v in self._by_video.items()}

    @property
    def span(self) -> tuple[float, float]:
        """(earliest, latest) start time; raises on an empty batch."""
        if not self._requests:
            raise WorkloadError("empty request batch has no span")
        return (self._requests[0].start_time, self._requests[-1].start_time)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"RequestBatch({len(self)} requests, "
            f"{len(self.video_ids)} distinct videos)"
        )
