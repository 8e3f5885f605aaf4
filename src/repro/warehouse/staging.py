"""Offline staging planner for the hierarchical warehouse.

Given the cycle's final service schedule, every stream that originates at
the warehouse needs its title **on disk** for the duration of the stream.
Because VOR schedules are known offline, the planner can

* schedule tape-to-disk stagings earliest-deadline-first across the drives
  (each staging occupies one drive for ``seek + size/bandwidth`` seconds),
* keep titles resident across nearby reuses, and
* evict with **Belady's rule** (farthest next use), which is optimal for
  an offline reference string.

The planner never fails hard: a stream whose title cannot be staged in time
(drives busy) or cannot fit (disk full of in-use titles) is reported as a
*miss* with its cause, so capacity planning can sweep the spec until the
miss count reaches zero (see ``examples``/``benchmarks``).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import Schedule
from repro.core.spacefunc import UsageTimeline, flat_timeline
from repro.errors import SimulationError
from repro.warehouse.hierarchy import WarehouseSpec

#: The warehouse whose tape library the planner stages for.
WAREHOUSE = "VW"


@dataclass(frozen=True)
class StagingTask:
    """One planned tape-to-disk transfer."""

    video_id: str
    drive: int
    start: float
    finish: float
    deadline: float

    @property
    def late(self) -> bool:
        return self.finish > self.deadline + 1e-9

    @property
    def lateness(self) -> float:
        return max(self.finish - self.deadline, 0.0)


@dataclass(frozen=True)
class StagingMiss:
    """A warehouse stream whose title could not be ready in time."""

    video_id: str
    stream_time: float
    cause: str  # "late" | "space"
    detail: float  # lateness seconds, or missing bytes


@dataclass
class StagingReport:
    """Everything the planner decided plus derived statistics."""

    tasks: list[StagingTask] = field(default_factory=list)
    misses: list[StagingMiss] = field(default_factory=list)
    hits: int = 0  # streams served by an already-resident title
    total_streams: int = 0
    disk_usage: UsageTimeline = field(default_factory=UsageTimeline)
    drive_busy: list[float] = field(default_factory=list)  # busy seconds/drive
    horizon: tuple[float, float] = (0.0, 0.0)

    @property
    def miss_rate(self) -> float:
        if self.total_streams == 0:
            return 0.0
        return len(self.misses) / self.total_streams

    @property
    def hit_rate(self) -> float:
        if self.total_streams == 0:
            return 0.0
        return self.hits / self.total_streams

    @property
    def peak_disk_usage(self) -> float:
        return self.disk_usage.peak

    def drive_utilization(self, spec: WarehouseSpec) -> list[float]:
        """Busy fraction per drive over the planning horizon."""
        t0, t1 = self.horizon
        span = max(t1 - t0, 1e-9)
        return [b / span for b in self.drive_busy]


@dataclass
class _Resident:
    """A title currently on disk."""

    video_id: str
    size: float
    staged_at: float
    in_use_until: float  # cannot be evicted before this


class StagingPlanner:
    """Plans tape stagings for the warehouse-sourced part of a schedule."""

    def __init__(self, spec: WarehouseSpec, catalog: VideoCatalog):
        self._spec = spec
        self._catalog = catalog

    def plan(self, schedule: Schedule) -> StagingReport:
        """Produce the staging plan for every stream sourced at ``WAREHOUSE``."""
        streams = sorted(
            (d.start_time, d.video_id)
            for d in schedule.deliveries
            if d.source == WAREHOUSE
        )
        report = StagingReport(total_streams=len(streams))
        report.drive_busy = [0.0] * self._spec.tape_drives
        if not streams:
            return report

        # next-use index: per title, the sorted stream times
        uses: dict[str, list[float]] = {}
        for t, vid in streams:
            uses.setdefault(vid, []).append(t)

        def next_use(vid: str, after: float) -> float:
            times = uses[vid]
            idx = bisect_right(times, after)
            return times[idx] if idx < len(times) else math.inf

        drive_free = [0.0] * self._spec.tape_drives
        residents: dict[str, _Resident] = {}
        used_bytes = 0.0
        occupancy: list[tuple[str, float, float, float]] = []  # vid, size, s, e
        horizon_end = max(
            t + self._catalog[vid].playback for t, vid in streams
        )

        for t, vid in streams:
            video = self._catalog[vid]
            stream_end = t + video.playback
            resident = residents.get(vid)
            if resident is not None:
                resident.in_use_until = max(resident.in_use_until, stream_end)
                report.hits += 1
                continue

            duration = self._spec.staging_duration(video.size)
            drive = min(range(len(drive_free)), key=lambda i: drive_free[i])
            # just-in-time staging: finish exactly at the deadline when the
            # drive allows, so earlier residents have aged out of use and can
            # be evicted to make room (lazy staging maximizes evictability)
            start = max(drive_free[drive], t - duration)
            finish = start + duration

            # free disk space (Belady: evict farthest next use first), but
            # never evict a title still in use at the staging start
            needed = video.size - (self._spec.disk_capacity - used_bytes)
            if needed > 0:
                evictable = sorted(
                    (
                        r
                        for r in residents.values()
                        if r.in_use_until <= start + 1e-9
                    ),
                    key=lambda r: next_use(r.video_id, t),
                    reverse=True,
                )
                for r in evictable:
                    if needed <= 0:
                        break
                    occupancy.append((r.video_id, r.size, r.staged_at, start))
                    used_bytes -= r.size
                    needed -= r.size
                    del residents[r.video_id]
            if video.size > self._spec.disk_capacity - used_bytes + 1e-9:
                report.misses.append(
                    StagingMiss(
                        vid,
                        t,
                        "space",
                        video.size - (self._spec.disk_capacity - used_bytes),
                    )
                )
                continue

            drive_free[drive] = finish
            report.drive_busy[drive] += duration
            task = StagingTask(vid, drive, start, finish, deadline=t)
            report.tasks.append(task)
            if task.late:
                report.misses.append(
                    StagingMiss(vid, t, "late", task.lateness)
                )
            residents[vid] = _Resident(vid, video.size, start, stream_end)
            used_bytes += video.size

        for r in residents.values():
            occupancy.append((r.video_id, r.size, r.staged_at, horizon_end))

        report.disk_usage = flat_timeline(
            (s, e, size) for _vid, size, s, e in occupancy
        )
        t0 = min(t for t, _ in streams)
        report.horizon = (min(t0, 0.0), horizon_end)
        self._sanity(report)
        return report

    def _sanity(self, report: StagingReport) -> None:
        if report.peak_disk_usage > self._spec.disk_capacity * (1 + 1e-9):
            raise SimulationError(
                "staging planner internal error: disk over-committed "
                f"({report.peak_disk_usage:g} > {self._spec.disk_capacity:g})"
            )
        space_misses = sum(1 for m in report.misses if m.cause == "space")
        if report.hits + len(report.tasks) + space_misses != report.total_streams:
            raise SimulationError(
                "staging planner internal error: stream accounting mismatch"
            )
