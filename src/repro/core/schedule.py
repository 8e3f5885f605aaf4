"""Schedule data model (paper Sec. 2.1).

A *service schedule* ``S`` consists of

* network transfer information ``D = {d_1 ... d_nd}`` -- each
  :class:`DeliveryInfo` says "a stream of video ``id`` flows along ``route``
  starting at ``t_s``", and
* file residency information ``C = {c_1 ... c_nc}`` -- each
  :class:`ResidencyInfo` is the paper's five-tuple
  ``([t_s, t_f], loc, id, n_src, service_list)``.

Routes end at the *local* intermediate storage of the requesting user; the
last hop from local IS to the user is fixed and therefore never scheduled or
priced (Sec. 2.1).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field

from repro.catalog.video import VideoFile
from repro.core.spacefunc import SpaceProfile, residency_profile
from repro.errors import ScheduleError
from repro.workload.requests import Request


@dataclass(frozen=True, slots=True)
class DeliveryInfo:
    """Network transfer information ``d_i = (route, t_s, id)``.

    Attributes:
        video_id: The transferred video.
        route: Node names from the stream's source (warehouse or caching
            storage) to the requesting user's local storage, inclusive.  A
            single-node route means the user is served by its own local
            cache and no priced network transfer occurs.
        start_time: When the flow (and the user's playback) begins.
        request: The request this delivery serves.
    """

    video_id: str
    route: tuple[str, ...]
    start_time: float
    request: Request

    def __post_init__(self) -> None:
        if not self.route:
            raise ScheduleError("delivery route must contain at least one node")
        if not math.isfinite(self.start_time):
            raise ScheduleError(f"start_time must be finite, got {self.start_time}")
        if self.request.video_id != self.video_id:
            raise ScheduleError(
                f"delivery video {self.video_id!r} does not match request video "
                f"{self.request.video_id!r}"
            )
        if self.route[-1] != self.request.local_storage:
            raise ScheduleError(
                f"route ends at {self.route[-1]!r}, expected the user's local "
                f"storage {self.request.local_storage!r}"
            )

    @property
    def source(self) -> str:
        return self.route[0]

    @property
    def destination(self) -> str:
        return self.route[-1]

    @property
    def hops(self) -> int:
        return len(self.route) - 1


@dataclass(frozen=True, slots=True)
class ResidencyInfo:
    """File residency information ``c_i = ([t_s, t_f], loc, id, n_src, svc)``.

    ``t_start`` is when the cache starts filling (from the stream identified
    by ``source``); ``t_last`` is the start time of the last service fed from
    this cache.  Blocks already consumed by that chronologically-last service
    are discarded, so physical occupancy follows the Eq. 6 profile and ends at
    ``t_last + P``.
    """

    video_id: str
    location: str
    source: str
    t_start: float
    t_last: float
    service_list: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.t_last < self.t_start:
            raise ScheduleError(
                f"residency interval reversed: [{self.t_start}, {self.t_last}]"
            )
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_last)):
            raise ScheduleError("residency interval must be finite")
        if self.location == self.source:
            raise ScheduleError(
                f"residency at {self.location!r} cannot source from itself"
            )

    @property
    def span(self) -> float:
        """Length of the caching interval ``t_f - t_s``."""
        return self.t_last - self.t_start

    def is_long(self, video: VideoFile) -> bool:
        """Long residency per Sec. 2.2.1: ``t_f - t_s >= P``."""
        return self.span >= video.playback

    def profile(self, video: VideoFile) -> SpaceProfile:
        """The Eq. 6 reserved-space profile of this residency."""
        if video.video_id != self.video_id:
            raise ScheduleError(
                f"profile requested with video {video.video_id!r} for residency "
                f"of {self.video_id!r}"
            )
        return residency_profile(video.size, video.playback, self.t_start, self.t_last)

    def check_extension(self, new_t_last: float) -> None:
        """Raise :class:`ScheduleError` unless ``t_last`` may move to
        ``new_t_last`` (a residency is extended, never shrunk)."""
        if new_t_last < self.t_last:
            raise ScheduleError(
                f"cannot shrink residency: {new_t_last} < {self.t_last}"
            )

    def extended(self, new_t_last: float, user_id: str) -> "ResidencyInfo":
        """Copy with the caching interval extended to serve ``user_id``."""
        self.check_extension(new_t_last)
        # once per request served from a cache (the greedy prices its
        # candidates without building them): direct construction is still
        # ~3x faster than dataclasses.replace
        return ResidencyInfo(
            self.video_id,
            self.location,
            self.source,
            self.t_start,
            new_t_last,
            self.service_list + (user_id,),
        )


@dataclass
class FileSchedule:
    """Schedule ``S_i`` for one video: its deliveries and residencies."""

    video_id: str
    deliveries: list[DeliveryInfo] = field(default_factory=list)
    residencies: list[ResidencyInfo] = field(default_factory=list)

    def add_delivery(self, d: DeliveryInfo) -> None:
        if d.video_id != self.video_id:
            raise ScheduleError(
                f"delivery of {d.video_id!r} added to schedule of {self.video_id!r}"
            )
        self.deliveries.append(d)

    def add_residency(self, c: ResidencyInfo) -> None:
        if c.video_id != self.video_id:
            raise ScheduleError(
                f"residency of {c.video_id!r} added to schedule of {self.video_id!r}"
            )
        self.residencies.append(c)

    @property
    def served_users(self) -> list[str]:
        return [d.request.user_id for d in self.deliveries]

    def residencies_at(self, location: str) -> list[ResidencyInfo]:
        return [c for c in self.residencies if c.location == location]

    def pruned(self) -> "FileSchedule":
        """Copy without unused cache candidates.

        A candidate is pruned only when it is zero-extent *and* served
        nobody.  A zero-extent residency **with** services is a real-time
        relay -- two simultaneous streams where the second tees off the
        first at this storage with zero lag (gamma = 0, no space, no cost)
        -- and must stay in the schedule to back its deliveries.
        """
        return FileSchedule(
            self.video_id,
            list(self.deliveries),
            [
                c
                for c in self.residencies
                if c.t_last > c.t_start or c.service_list
            ],
        )


class Schedule:
    """The full service schedule ``S`` = union of per-file schedules."""

    def __init__(self, file_schedules: Iterable[FileSchedule] = ()):
        self._files: dict[str, FileSchedule] = {}
        for fs in file_schedules:
            self.set_file(fs)

    def set_file(self, fs: FileSchedule) -> None:
        """Insert or replace the schedule of one video."""
        self._files[fs.video_id] = fs

    def __eq__(self, other: object) -> bool:
        """Value equality: same videos with equal per-file schedules.

        Insertion order is deliberately ignored -- two schedules holding the
        same deliveries and residencies are the same plan however they were
        assembled.  (Per-file delivery/residency *lists* still compare
        ordered, as those orders are part of each file's greedy history.)
        """
        if not isinstance(other, Schedule):
            return NotImplemented
        return self._files == other._files

    __hash__ = None  # mutable container

    def file(self, video_id: str) -> FileSchedule:
        try:
            return self._files[video_id]
        except KeyError:
            raise ScheduleError(f"no schedule for video {video_id!r}") from None

    def __contains__(self, video_id: str) -> bool:
        return video_id in self._files

    def __iter__(self) -> Iterator[FileSchedule]:
        return iter(self._files.values())

    def __len__(self) -> int:
        return len(self._files)

    @property
    def deliveries(self) -> list[DeliveryInfo]:
        return [d for fs in self._files.values() for d in fs.deliveries]

    @property
    def residencies(self) -> list[ResidencyInfo]:
        return [c for fs in self._files.values() for c in fs.residencies]

    def residencies_at(self, location: str) -> list[ResidencyInfo]:
        return [c for c in self.residencies if c.location == location]

    def pruned(self) -> "Schedule":
        """Copy with unused zero-extent cache candidates removed."""
        return Schedule(fs.pruned() for fs in self._files.values())

    def copy(self) -> "Schedule":
        return Schedule(
            FileSchedule(fs.video_id, list(fs.deliveries), list(fs.residencies))
            for fs in self._files.values()
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Schedule({len(self._files)} videos, "
            f"{len(self.deliveries)} deliveries, "
            f"{len(self.residencies)} residencies)"
        )
