"""Storage overflow detection (paper Sec. 4.1).

When the independently computed per-file schedules are integrated, an
intermediate storage can be over-committed during some time intervals.  An
overflow ``OF_{Δt, IS_j}`` is identified by its location and the maximal
interval during which the summed reserved space (Eq. 6 profiles of all
residencies at ``IS_j``) exceeds the storage's capacity.
``OverflowSet(IS_j, Δt)`` is the set of residencies involved -- those whose
profile is positive somewhere inside the interval.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import (
    SpaceProfile,
    UsageTimeline,
    capacity_slack,
    residency_profile,
)
from repro.topology.graph import Topology


@dataclass(frozen=True)
class OverflowSituation:
    """One ``OF_{Δt, IS_j}`` with its overflow set.

    Attributes:
        location: The over-committed storage ``IS_j``.
        interval: Maximal ``(t_start, t_end)`` with usage > capacity.
        members: Residencies occupying space inside the interval
            (``OverflowSet(IS_j, Δt)``).
        peak_usage: Maximum summed reserved space during the interval.
        capacity: The storage's capacity (for excess reporting).
        excess_spacetime: Integral of ``usage - capacity`` over the interval.
    """

    location: str
    interval: tuple[float, float]
    members: tuple[ResidencyInfo, ...]
    peak_usage: float
    capacity: float
    excess_spacetime: float

    @property
    def duration(self) -> float:
        return self.interval[1] - self.interval[0]

    @property
    def peak_excess(self) -> float:
        return self.peak_usage - self.capacity

    def journal_attrs(self) -> dict:
        """Attribute dict for an ``overflowed`` journal event."""
        return {
            "location": self.location,
            "interval": self.interval,
            "members": len(self.members),
            "videos": tuple(sorted({c.video_id for c in self.members})),
            "peak_usage": self.peak_usage,
            "capacity": self.capacity,
            "excess": self.excess_spacetime,
        }


class LocationIndex:
    """Per-storage residency profiles of one schedule, with version stamps.

    For every storage the index holds ``(residency, profile)`` pairs in
    exactly ``schedule.residencies_at(loc)`` order, so timelines summed
    from it are bit-identical to ones built from the schedule directly
    (:class:`UsageTimeline` accumulates floating-point running sums, so
    the order of the profiles is part of the result).

    Change the schedule only through :meth:`set_file`: it bumps the
    version stamp of every storage where the replaced file's old or new
    residencies lie, marks those storages' entries for a rebuild and
    empties their :meth:`memo`.  Stamps are per storage, never per time window: a
    change disjoint in time can still move later running sums by ulps.

    ``background`` is the fixed ``{location: [SpaceProfile, ...]}`` of
    out-of-schedule usage that every capacity view adds (rolling cycles).
    Profiles are memoized on ``(video_id, t_start, t_last)``; the index
    lives for one SORP run, so nothing it caches outlives that run.
    """

    def __init__(self, schedule: Schedule, catalog: VideoCatalog, background=None):
        self.schedule = schedule
        self.background = background or {}
        self._catalog = catalog
        self._profiles: dict[tuple[str, float, float], SpaceProfile] = {}
        self._entries: dict[str, list[tuple[ResidencyInfo, SpaceProfile]]] = {}
        #: Locations whose entries must be rebuilt; ``None`` means all.
        self._stale: set[str] | None = None
        self._versions: dict[str, int] = {}
        self._memos: dict[str, dict] = {}
        #: :class:`UsageTimeline` constructions made through this index.
        self.timeline_builds = 0

    def profile(self, video_id: str, t_start: float, t_last: float) -> SpaceProfile:
        """The Eq. 6 profile of a residency of ``video_id`` over
        ``[t_start, t_last]`` (memoized)."""
        key = (video_id, t_start, t_last)
        p = self._profiles.get(key)
        if p is None:
            video = self._catalog[video_id]
            p = self._profiles[key] = residency_profile(
                video.size, video.playback, t_start, t_last
            )
        return p

    def entries(self, location: str) -> list[tuple[ResidencyInfo, SpaceProfile]]:
        """``(residency, profile)`` pairs at ``location``, schedule order."""
        if self._stale is None or location in self._stale:
            self._refresh()
        return self._entries.get(location, [])

    def _refresh(self) -> None:
        """Rebuild every stale location's entries in one schedule pass."""
        stale = self._stale
        if stale is None:
            self._entries.clear()
        for loc in stale or ():
            self._entries.pop(loc, None)
        for c in self.schedule.residencies:
            if stale is None or c.location in stale:
                profile = self.profile(c.video_id, c.t_start, c.t_last)
                self._entries.setdefault(c.location, []).append((c, profile))
        self._stale = set()

    def version(self, location: str) -> int:
        """Stamp that changes whenever the usage at ``location`` may have."""
        return self._versions.get(location, 0)

    def memo(self, location: str) -> dict:
        """Scratch cache for ``location``, emptied when its stamp bumps."""
        memo = self._memos.get(location)
        if memo is None:
            memo = self._memos[location] = {}
        return memo

    def timeline(self, profiles: list[SpaceProfile]) -> UsageTimeline:
        """Build (and count) one usage timeline."""
        self.timeline_builds += 1
        return UsageTimeline(profiles)

    def set_file(self, fs: FileSchedule) -> set[str]:
        """Replace one video's schedule; returns the storages it touched."""
        old = self.schedule.file(fs.video_id)
        self.schedule.set_file(fs)
        changed = {c.location for c in old.residencies}
        changed.update(c.location for c in fs.residencies)
        if self._stale is not None:
            self._stale |= changed
        for loc in changed:
            self._versions[loc] = self.version(loc) + 1
            self._memos.pop(loc, None)
        return changed


def storage_usage(
    schedule: Schedule, catalog: VideoCatalog, location: str
) -> UsageTimeline:
    """Summed reserved-space timeline of all residencies at ``location``."""
    profiles = [
        c.profile(catalog[c.video_id]) for c in schedule.residencies_at(location)
    ]
    return UsageTimeline(profiles)


def detect_overflows(
    schedule: Schedule,
    catalog: VideoCatalog,
    topology: Topology,
    *,
    background=None,
    index: LocationIndex | None = None,
) -> list[OverflowSituation]:
    """All storage overflow situations in an integrated schedule.

    Returns one :class:`OverflowSituation` per maximal violation interval per
    storage, ordered by (location, interval start).

    ``background`` is an optional ``{location: [SpaceProfile, ...]}`` of
    space committed outside this schedule (e.g. residency tails carried over
    from the previous scheduling cycle).  Background usage counts toward
    capacity but is never part of an overflow set -- only the schedule's own
    residencies can be victimized.

    An interval counts only where usage exceeds
    :func:`~repro.core.spacefunc.capacity_slack`, the tolerance the
    rejective greedy places under, so a placement that fits never shows up
    as a new overflow.

    ``index`` (a :class:`LocationIndex` mirroring ``schedule`` and
    ``background``; by default a fresh one) makes repeated sweeps
    incremental: a storage whose stamp is unchanged since the index last
    swept it reuses that sweep's result.
    """
    if index is None:
        index = LocationIndex(schedule, catalog, background)
    elif index.schedule is not schedule:
        raise ValueError("index does not mirror the schedule being swept")
    overflows: list[OverflowSituation] = []
    for spec in topology.storages:
        memo = index.memo(spec.name)
        found = memo.get("overflows")
        if found is None:
            found = memo["overflows"] = _overflows_at(spec, index)
        overflows.extend(found)
    overflows.sort(key=lambda o: (o.location, o.interval))
    return overflows


def _overflows_at(spec, index: LocationIndex) -> list[OverflowSituation]:
    """Overflow situations at one storage."""
    entries = index.entries(spec.name)
    if not entries:
        return []
    profiles = [p for _, p in entries]
    timeline = index.timeline([*profiles, *index.background.get(spec.name, ())])
    slack = capacity_slack(spec.capacity)
    if timeline.peak <= slack:
        return []
    found = []
    for (t0, t1) in timeline.intervals_above(spec.capacity):
        peak = timeline.max_over(t0, t1)
        if peak <= slack:
            continue  # within the placement tolerance: not an overflow
        members = tuple(c for c, p in entries if p.positive_in(t0, t1))
        found.append(
            OverflowSituation(
                location=spec.name,
                interval=(t0, t1),
                members=members,
                peak_usage=peak,
                capacity=spec.capacity,
                excess_spacetime=_excess_between(timeline, spec.capacity, t0, t1),
            )
        )
    return found


def _excess_between(
    timeline: UsageTimeline, capacity: float, t0: float, t1: float
) -> float:
    """Excess space-time restricted to ``[t0, t1]``.

    The violation intervals already bound where usage exceeds capacity, so
    integrating the global excess function restricted to the interval equals
    integrating within it.
    """
    # Inside a maximal violation interval usage >= capacity, so the excess
    # ``usage - capacity`` is linear on each cell of the window's grid and
    # the trapezoid rule is exact; the clamp at 0 only absorbs rounding at
    # the interval's computed crossing points.
    if timeline.is_empty or t1 <= t0:
        return 0.0
    grid = [t0] + [float(t) for t in timeline.grid if t0 < t < t1] + [t1]
    total = 0.0
    for a, b in zip(grid, grid[1:]):
        ya = max(timeline.value(a) - capacity, 0.0)
        yb = max(timeline.value_left(b) - capacity, 0.0)
        total += 0.5 * (ya + yb) * (b - a)
    return total
