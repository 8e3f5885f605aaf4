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

Given the video, its requests and its seeds, a run is a deterministic
function of the ordered answers the constraints give.  Each run therefore
records them in a :class:`DecisionLog`, with a mark before every request.
SORP (:mod:`repro.core.sorp`) re-decides a logged run's answers against a
changed schedule or window, and resumes the greedy at the request that
made the first one that differs.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from itertools import chain
from operator import itemgetter

import numpy as np

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.individual import IndividualScheduler
from repro.core.overflow import LocationIndex
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import (
    EPS,
    SpaceProfile,
    UsageTimeline,
    capacity_slack,
    residency_profile,
)
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
        self._answers_key = ("fits", exclude_video)

    def profile(self, video_id: str, t_start: float, t_last: float) -> SpaceProfile:
        """The (memoized) Eq. 6 profile of a residency over ``[t_start, t_last]``."""
        return self._index.profile(video_id, t_start, t_last)

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

    def answer(
        self, location: str, t_start: float, t_last: float, profile: SpaceProfile
    ) -> bool:
        """Does the residency ``[t_start, t_last]`` with ``profile`` fit at
        ``location``?  Answered once per location stamp."""
        memo = self._index.memo(location)
        answers = memo.get(self._answers_key)
        if answers is None:
            answers = memo[self._answers_key] = {}
        key = (t_start, t_last)
        ok = answers.get(key)
        if ok is None:
            ok = answers[key] = self.fits(location, profile)
        return ok


#: One capacity decision of a rejective greedy run:
#: ``(location, t_start, t_last, profile, allowed)``.
Decision = tuple[str, float, float, SpaceProfile, bool]


@dataclass
class DecisionLog:
    """Every non-zero-extent decision of one rejective greedy run, in order.

    Besides the video, its sorted requests and its seeds, which a run
    takes as fixed inputs, these ordered answers are all the greedy
    depends on.  A re-run whose decisions agree up to decision ``i``
    therefore serves every request before :meth:`owner` ``(i)`` the same
    way, and it holds the same residencies when it reaches that request.
    """

    decisions: list[Decision] = field(default_factory=list)
    #: One ``(len(decisions), residencies)`` per request, taken just
    #: before the greedy served it.
    marks: list[tuple[int, tuple[ResidencyInfo, ...]]] = field(
        default_factory=list
    )
    #: ``{location: ascending indexes into decisions}``.
    at: dict[str, list[int]] = field(default_factory=dict)

    def record(
        self,
        location: str,
        t_start: float,
        t_last: float,
        profile: SpaceProfile,
        allowed: bool,
    ) -> None:
        self.at.setdefault(location, []).append(len(self.decisions))
        self.decisions.append((location, t_start, t_last, profile, allowed))

    def mark(self, residencies: list[ResidencyInfo]) -> None:
        """Note the state before the next request."""
        self.marks.append((len(self.decisions), tuple(residencies)))

    def owner(self, i: int) -> int:
        """Index of the request whose service made decision ``i``."""
        return bisect_right(self.marks, i, key=itemgetter(0)) - 1

    def in_order(self, locations) -> list[int]:
        """Indexes of the decisions at ``locations``, in log order."""
        at = self.at
        return sorted(chain.from_iterable(at[loc] for loc in locations if loc in at))

    def cut(self, k: int) -> tuple["DecisionLog", tuple[ResidencyInfo, ...]]:
        """The log of the first ``k`` requests and the residencies the
        greedy held before request ``k``."""
        n, residencies = self.marks[k]
        at = {}
        for loc, indexes in self.at.items():
            j = bisect_left(indexes, n)
            if j:
                at[loc] = indexes[:j]
        return DecisionLog(self.decisions[:n], self.marks[:k], at), residencies


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
        log: Receives every decision :meth:`allows` makes on a residency
            that occupies space.
    """

    forbidden: list[tuple[str, tuple[float, float]]] = field(default_factory=list)
    oracle: AvailabilityOracle | None = None
    log: DecisionLog = field(default_factory=DecisionLog)

    def allows(
        self,
        video: VideoFile,
        location: str,
        t_start: float,
        t_last: float,
        *,
        replacing: ResidencyInfo | None = None,
    ) -> bool:
        """May ``video`` reside at ``location`` over ``[t_start, t_last]``
        (possibly replacing an earlier interval)?"""
        del replacing  # one residency per (file, IS); see IndividualScheduler
        oracle = self.oracle
        if oracle is None:
            profile = residency_profile(video.size, video.playback, t_start, t_last)
        else:
            profile = oracle.profile(video.video_id, t_start, t_last)
        if not profile.segments:
            return True  # zero-extent candidates occupy no space
        allowed = self.decide(location, t_start, t_last, profile)
        self.log.record(location, t_start, t_last, profile, allowed)
        return allowed

    def decide(
        self, location: str, t_start: float, t_last: float, profile: SpaceProfile
    ) -> bool:
        """:meth:`allows` for a residency with space ``profile``, unrecorded:
        the forbidden windows first, then the oracle."""
        for loc, (t0, t1) in self.forbidden:
            if loc == location and profile.positive_in(t0, t1):
                return False
        oracle = self.oracle
        return oracle is None or oracle.answer(location, t_start, t_last, profile)


class RejectiveGreedyScheduler:
    """``rejective_greedy()`` of Table 3, line 18.

    Reschedules one victim file against the current integrated schedule,
    forbidding it from the overflowing ``(Δt, IS_j)`` and from any placement
    that would not fit in the currently available space, routed by
    ``route_policy`` (default: cheapest path).
    """

    def __init__(self, cost_model: CostModel, route_policy=None):
        self._cm = cost_model
        self._route_policy = route_policy

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
        log: DecisionLog | None = None,
        kept: tuple[DeliveryInfo, ...] = (),
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

        ``log`` (by default a private one) receives a mark before each
        request and every decision.  To resume an earlier run at request
        ``k``, pass its first ``k`` deliveries as ``kept``, the residencies
        it held before request ``k`` as ``initial_residencies`` and its
        log cut there (:meth:`DecisionLog.cut`); only the requests from
        ``k`` on are served.  A fresh run is the resume at request 0.
        """
        if oracle is None:
            oracle = AvailabilityOracle(
                schedule,
                self._cm.catalog,
                self._cm.topology,
                video.video_id,
                background=background,
            )
        constraints = ResidencyConstraints(
            list(forbidden), oracle, DecisionLog() if log is None else log
        )
        greedy = IndividualScheduler(self._cm, constraints, self._route_policy)
        session = greedy.session(
            video, initial_residencies=initial_residencies, kept=kept
        )
        for req in sorted(requests)[len(kept):]:
            constraints.log.mark(session.residencies)
            session.serve(req)
        return session.finish()
