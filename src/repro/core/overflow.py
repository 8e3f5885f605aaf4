"""Storage overflow detection (paper Sec. 4.1).

When the independently computed per-file schedules are integrated, an
intermediate storage can be over-committed during some time intervals.  An
overflow ``OF_{Δt, IS_j}`` is identified by its location and the maximal
interval during which the summed reserved space (Eq. 6 profiles of all
residencies at ``IS_j``) exceeds the storage's capacity.
``OverflowSet(IS_j, Δt)`` is the set of residencies involved -- those whose
profile is positive somewhere inside the interval.

:class:`StorageLedger` keeps SORP's view of the working schedule: one slot
per storage with its residency profiles, its full usage timeline (read by
detection and by every victim with no residency there), each present
victim's "everyone but v" timeline and the rejective greedy's ``fits``
answers.  A committed victim renews only the slots its files touch.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.schedule import FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import (
    SpaceProfile,
    UsageTimeline,
    capacity_slack,
    fits_under,
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


class _Slot:
    """One storage's share of the ledger, valid until a commit touches it."""

    __slots__ = ("entries", "videos", "views", "answers", "overflows")

    def __init__(self, entries: list[tuple[ResidencyInfo, SpaceProfile]]):
        #: ``(residency, profile)`` pairs in ``residencies_at`` order.
        self.entries = entries
        #: Ids of the videos with a residency here.
        self.videos = {c.video_id for c, _ in entries}
        #: ``{video_id: everyone but that video}`` for ids in ``videos``,
        #: and under ``None`` the full timeline; each built on first use.
        self.views: dict[str | None, UsageTimeline] = {}
        #: ``{(video_id, t_start, t_last): fits}``.
        self.answers: dict[tuple[str, float, float], bool] = {}
        #: Detection's result, once swept.
        self.overflows: list[OverflowSituation] | None = None


class StorageLedger:
    """SORP's per-storage view of one schedule, renewed commit by commit.

    Each storage has one slot holding its ``(residency, profile)`` pairs
    in exactly ``schedule.residencies_at(loc)`` order, so timelines summed
    from it are bit-identical to ones built from the schedule directly
    (:class:`UsageTimeline` accumulates floating-point running sums, so
    the order of the profiles is part of the result).  A slot also keeps
    what was computed from those pairs: the full timeline (entries plus
    background), the "everyone but v" timeline of each video ``v`` with a
    residency there, the :meth:`fits` answers and detection's overflows.

    Change the schedule only through :meth:`set_file`.  It is a commit:
    the storages where the replaced file's old or new residencies lie get
    fresh slots, and the ledger notes them under the next commit number
    (:attr:`commits`, :meth:`touched_since`).  Slots are per storage,
    never per time window: a change disjoint in time can still move later
    running sums by ulps.

    ``background`` is the fixed ``{location: [SpaceProfile, ...]}`` of
    out-of-schedule usage that every capacity view adds (rolling cycles).
    Profiles are memoized on ``(video_id, t_start, t_last)``; the ledger
    lives for one SORP run, so nothing it caches outlives that run.
    """

    def __init__(
        self,
        schedule: Schedule,
        catalog: VideoCatalog,
        topology: Topology,
        background=None,
    ):
        self.schedule = schedule
        self.background = background or {}
        self._catalog = catalog
        self._topology = topology
        self._profiles: dict[tuple[str, float, float], SpaceProfile] = {}
        self._slots: dict[str, _Slot] = {}
        #: The storages each commit touched, in commit order.
        self._touched: list[set[str]] = []
        #: :class:`UsageTimeline` constructions made through this ledger.
        self.timeline_builds = 0
        self._renew(None)

    @property
    def commits(self) -> int:
        """Number of :meth:`set_file` calls so far."""
        return len(self._touched)

    def touched_since(self, commit: int) -> set[str]:
        """Storages whose slots commits after number ``commit`` renewed."""
        return set().union(*self._touched[commit:])

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
        return self._slot(location).entries

    def view(self, location: str, video_id: str | None = None) -> UsageTimeline:
        """Usage at ``location`` of every file but ``video_id``, plus the
        background; built once per slot.  A video with no residency there
        (or none given) sees the full timeline detection sweeps."""
        slot = self._slot(location)
        # Filtering out a video with no residency here drops nothing, and
        # the same profiles in the same order sum to the same timeline.
        key = video_id if video_id in slot.videos else None
        tl = slot.views.get(key)
        if tl is None:
            profiles = [p for c, p in slot.entries if c.video_id != key]
            profiles.extend(self.background.get(location, ()))
            tl = slot.views[key] = self._build(profiles)
        return tl

    def fits(
        self,
        location: str,
        video_id: str,
        t_start: float,
        t_last: float,
        profile: SpaceProfile,
    ) -> bool:
        """Does ``video_id``'s residency ``[t_start, t_last]`` with space
        ``profile`` fit in what every other file and the background leave
        at ``location``?  Answered once per slot."""
        slot = self._slot(location)
        key = (video_id, t_start, t_last)
        ok = slot.answers.get(key)
        if ok is None:
            capacity = self._topology.capacity(location)
            ok = profile.peak <= capacity_slack(capacity) and fits_under(
                self.view(location, video_id), profile, capacity
            )
            slot.answers[key] = ok
        return ok

    def set_file(self, fs: FileSchedule) -> set[str]:
        """Commit one video's new schedule; returns the storages it touched."""
        old = self.schedule.file(fs.video_id)
        self.schedule.set_file(fs)
        changed = {c.location for c in old.residencies}
        changed.update(c.location for c in fs.residencies)
        self._touched.append(changed)
        if changed:
            self._renew(changed)
        return changed

    def _slot(self, location: str) -> _Slot:
        slot = self._slots.get(location)
        if slot is None:
            slot = self._slots[location] = _Slot([])
        return slot

    def _renew(self, locations: set[str] | None) -> None:
        """Fresh slots for ``locations`` (``None``: all) in one schedule pass."""
        entries: dict[str, list] = {loc: [] for loc in locations or ()}
        for c in self.schedule.residencies:
            if locations is None or c.location in locations:
                profile = self.profile(c.video_id, c.t_start, c.t_last)
                entries.setdefault(c.location, []).append((c, profile))
        for loc, pairs in entries.items():
            self._slots[loc] = _Slot(pairs)

    def _build(self, profiles: list[SpaceProfile]) -> UsageTimeline:
        self.timeline_builds += 1
        return UsageTimeline(profiles)


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
    ledger: StorageLedger | None = None,
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

    ``ledger`` (a :class:`StorageLedger` mirroring ``schedule`` and
    ``background``; by default a fresh one) makes repeated sweeps
    incremental: a storage whose slot no commit renewed since the ledger
    last swept it reuses that sweep's result.
    """
    if ledger is None:
        ledger = StorageLedger(schedule, catalog, topology, background)
    elif ledger.schedule is not schedule:
        raise ValueError("ledger does not mirror the schedule being swept")
    overflows: list[OverflowSituation] = []
    for spec in topology.storages:
        slot = ledger._slot(spec.name)
        if slot.overflows is None:
            slot.overflows = _overflows_at(spec, ledger)
        overflows.extend(slot.overflows)
    overflows.sort(key=lambda o: (o.location, o.interval))
    return overflows


def _overflows_at(spec, ledger: StorageLedger) -> list[OverflowSituation]:
    """Overflow situations at one storage."""
    entries = ledger.entries(spec.name)
    if not entries:
        return []
    timeline = ledger.view(spec.name)
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
