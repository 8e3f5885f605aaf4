"""Rejective greedy rescheduling (paper Sec. 4.4).

The rejective greedy re-arranges the service delivery of *all* requests for a
victim file under two additional constraints the Phase-1 greedy ignores:

1. the file may not be cached at the overflowing storage ``IS_j`` during the
   overflow interval ``Δt`` (it must not occupy space there then), and
2. it "maintains the space usage information for the intermediate storages,
   and does not schedule a video file to the intermediate storage if there is
   not sufficient storage capacity available" -- avoiding subsequent
   overflows.

Both are expressed as a :class:`ResidencyConstraints` object plugged into the
shared greedy core (:class:`~repro.core.individual.IndividualScheduler`), so
Phase 1 and the rejective greedy are literally the same algorithm with and
without constraints, as in the paper.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.individual import IndividualScheduler
from repro.core.overflow import LocationIndex
from repro.core.schedule import FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import EPS, SpaceProfile, UsageTimeline, capacity_slack
from repro.topology.graph import Topology
from repro.workload.requests import Request


def fits_under(
    timeline: UsageTimeline,
    profile: SpaceProfile,
    capacity: float,
    *,
    eps: float = EPS,
) -> bool:
    """True iff ``timeline + profile <= capacity`` everywhere.

    Both operands are piecewise linear, so their sum is too; its maximum is
    attained at a breakpoint of either operand (approached from the left or
    the right), which is the finite set of points we evaluate -- vectorized,
    as this is the scheduler's hottest inner check.
    """
    if not profile.segments:
        return True
    slack = capacity_slack(capacity, eps)
    if timeline.is_empty:
        return profile.peak <= slack
    ts = timeline._ts
    y_right = timeline._y_right
    y_next = timeline._y_next
    for seg in profile.segments:
        # segment endpoints: both one-sided timeline values matter
        for p in (seg.start, seg.end):
            pv = seg.value(p)
            if pv + timeline.value(p) > slack:
                return False
            if pv + timeline.value_left(p) > slack:
                return False
        # timeline grid points strictly inside the segment: the profile is
        # linear there, so evaluate it on a *view* of the grid (no per-point
        # Python bisects -- this is the scheduler's hottest loop)
        i0 = int(np.searchsorted(ts, seg.start, side="right"))
        i1 = int(np.searchsorted(ts, seg.end, side="left"))
        if i1 <= i0:
            continue
        prof = seg.y0 + seg.slope * (ts[i0:i1] - seg.start)
        if ((y_right[i0:i1] + prof) > slack).any():
            return False
        # left-limits at grid point j live in y_next[j-1]
        j0 = i0
        if j0 == 0:
            prof = prof[1:]
            j0 = 1
        if prof.size and ((y_next[j0 - 1 : i1 - 1] + prof) > slack).any():
            return False
    return True


class AvailabilityOracle:
    """Per-storage "space used by everyone else" view for one victim file.

    Answers whether a candidate residency profile fits in the capacity
    left at a location by every file but the victim (plus background).
    Timelines and answers come from a :class:`LocationIndex`, cached per
    ``(victim, location)`` until the location's stamp bumps, so every
    trial of one SORP run shares them; without an ``index`` the oracle
    builds a private one from ``schedule`` and ``background``.

    :attr:`queries` records every residency query the oracle answered,
    cached answers included, as ``{(location, t_start, t_last): (profile,
    answer)}`` in the order first asked -- exactly what a greedy run on
    this oracle depended on.
    """

    def __init__(
        self,
        schedule: Schedule,
        catalog: VideoCatalog,
        topology: Topology,
        exclude_video: str,
        background=None,
        *,
        index: LocationIndex | None = None,
    ):
        if index is None:
            index = LocationIndex(schedule, catalog, background)
        self._index = index
        self._topo = topology
        self._exclude = exclude_video
        self.queries: dict[tuple[str, float, float], tuple[SpaceProfile, bool]] = {}

    def profile(self, c: ResidencyInfo) -> SpaceProfile:
        """The (memoized) Eq. 6 profile of a candidate residency."""
        return self._index.profile(c)

    def timeline(self, location: str) -> UsageTimeline:
        memo = self._index.memo(location)
        key = ("timeline", self._exclude)
        tl = memo.get(key)
        if tl is None:
            profiles = [
                p
                for c, p in self._index.entries(location)
                if c.video_id != self._exclude
            ]
            profiles.extend(self._index.background.get(location, ()))
            tl = memo[key] = self._index.timeline(profiles)
        return tl

    def fits(self, location: str, profile: SpaceProfile) -> bool:
        capacity = self._topo.capacity(location)
        if profile.peak > capacity_slack(capacity):
            return False
        return fits_under(self.timeline(location), profile, capacity)

    def fits_residency(self, candidate: ResidencyInfo, profile: SpaceProfile) -> bool:
        """:meth:`fits` for ``candidate``'s profile; see :meth:`answer`."""
        return self.answer(
            candidate.location, candidate.t_start, candidate.t_last, profile
        )

    def answer(
        self, location: str, t_start: float, t_last: float, profile: SpaceProfile
    ) -> bool:
        """Does the residency ``[t_start, t_last]`` with ``profile`` fit at
        ``location``?  Answered once per location stamp, recorded in
        :attr:`queries` every time."""
        answers = self._index.memo(location).setdefault(("fits", self._exclude), {})
        key = (t_start, t_last)
        ok = answers.get(key)
        if ok is None:
            ok = answers[key] = self.fits(location, profile)
        self.queries[(location, t_start, t_last)] = (profile, ok)
        return ok


@dataclass
class ResidencyConstraints:
    """Constraints plugged into the greedy to make it *rejective*.

    Attributes:
        forbidden: ``(location, (t0, t1))`` pairs; a residency whose space
            profile is positive inside such an interval at that location is
            rejected (the victim must vacate the overflow window).
        oracle: Optional capacity oracle; when present, any residency whose
            profile does not fit in the location's remaining capacity is
            rejected.
    """

    forbidden: list[tuple[str, tuple[float, float]]] = field(default_factory=list)
    oracle: AvailabilityOracle | None = None

    def allows(
        self,
        candidate: ResidencyInfo,
        video: VideoFile,
        *,
        replacing: ResidencyInfo | None = None,
    ) -> bool:
        """May ``candidate`` (possibly replacing an earlier interval) exist?"""
        del replacing  # one residency per (file, IS); see IndividualScheduler
        oracle = self.oracle
        profile = (
            candidate.profile(video) if oracle is None else oracle.profile(candidate)
        )
        if not profile.segments:
            return True  # zero-extent candidates occupy no space
        for location, (t0, t1) in self.forbidden:
            if location == candidate.location and profile.positive_in(t0, t1):
                return False
        if oracle is not None and not oracle.fits_residency(candidate, profile):
            return False
        return True


class RejectiveGreedyScheduler:
    """``rejective_greedy()`` of Table 3, line 18.

    Reschedules one victim file against the current integrated schedule,
    forbidding it from the overflowing ``(Δt, IS_j)`` and from any placement
    that would not fit in the currently available space.
    """

    def __init__(self, cost_model: CostModel):
        self._cm = cost_model

    def reschedule(
        self,
        video: VideoFile,
        requests: list[Request],
        schedule: Schedule,
        *,
        forbidden: list[tuple[str, tuple[float, float]]],
        background=None,
        initial_residencies: tuple[ResidencyInfo, ...] = (),
        oracle: AvailabilityOracle | None = None,
    ) -> FileSchedule:
        """New ``S_i`` for ``video`` honouring capacity + forbidden windows.

        ``schedule`` is the full integrated schedule; the victim's own
        residencies are excluded from the availability view (they are being
        replaced wholesale).  ``background`` adds committed out-of-schedule
        usage (rolling cycles); ``initial_residencies`` re-seeds the
        victim's committed carryover caches, which a rebuild must keep.
        ``oracle`` supplies a prebuilt availability view of ``schedule``
        and ``background`` excluding ``video`` (SORP passes one that
        shares its run's :class:`LocationIndex`); by default a fresh one
        is built.
        """
        if oracle is None:
            oracle = AvailabilityOracle(
                schedule,
                self._cm.catalog,
                self._cm.topology,
                video.video_id,
                background=background,
            )
        constraints = ResidencyConstraints(forbidden=list(forbidden), oracle=oracle)
        greedy = IndividualScheduler(self._cm, constraints)
        return greedy.schedule_file(
            video, requests, initial_residencies=initial_residencies
        )
