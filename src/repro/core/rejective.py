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
without constraints, as in the paper.  The capacity check asks the SORP
run's :class:`~repro.core.overflow.StorageLedger`, which answers each
question once per storage slot with :func:`fits_under` (defined in
:mod:`repro.core.spacefunc`, re-exported here): against the storage's
"everyone but the victim" timeline, or its full timeline when the victim
has no residency there.

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

from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.individual import Copy, FileGreedySession, IndividualScheduler
from repro.core.overflow import StorageLedger
from repro.core.schedule import DeliveryInfo, FileSchedule
# fits_under is re-exported: callers bind it from this module
from repro.core.spacefunc import SpaceProfile, fits_under  # noqa: F401
from repro.workload.requests import Request


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
    way, and it holds the same copies when it reaches that request.
    """

    decisions: list[Decision] = field(default_factory=list)
    #: One ``(len(decisions), copies)`` per request, taken just before
    #: the greedy served it: the session's plain
    #: :data:`~repro.core.individual.Copy` state.
    marks: list[tuple[int, tuple[Copy, ...]]] = field(default_factory=list)
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

    def mark(self, copies: list[Copy]) -> None:
        """Note the state before the next request."""
        self.marks.append((len(self.decisions), tuple(copies)))

    def owner(self, i: int) -> int:
        """Index of the request whose service made decision ``i``."""
        return bisect_right(self.marks, i, key=itemgetter(0)) - 1

    def in_order(self, locations) -> list[int]:
        """Indexes of the decisions at ``locations``, in log order."""
        at = self.at
        return sorted(chain.from_iterable(at[loc] for loc in locations if loc in at))

    def cut(self, k: int) -> tuple["DecisionLog", tuple[Copy, ...]]:
        """The log of the first ``k`` requests and the copies the greedy
        held before request ``k``."""
        n, copies = self.marks[k]
        at = {}
        for loc, indexes in self.at.items():
            j = bisect_left(indexes, n)
            if j:
                at[loc] = indexes[:j]
        return DecisionLog(self.decisions[:n], self.marks[:k], at), copies


@dataclass
class ResidencyConstraints:
    """Constraints plugged into the greedy to make it *rejective*.

    Attributes:
        ledger: The run's :class:`~repro.core.overflow.StorageLedger`; a
            residency that does not fit in the capacity every other file
            leaves at its location is rejected.
        forbidden: ``(location, (t0, t1))`` pairs; a residency whose space
            profile is positive inside such an interval at that location is
            rejected (the victim must vacate the overflow window).
        log: Receives every decision :meth:`allows` makes on a residency
            that occupies space.
    """

    ledger: StorageLedger
    forbidden: list[tuple[str, tuple[float, float]]] = field(default_factory=list)
    log: DecisionLog = field(default_factory=DecisionLog)

    def allows(
        self,
        video: VideoFile,
        location: str,
        t_start: float,
        t_last: float,
        *,
        replacing: Copy | None = None,
    ) -> bool:
        """May ``video`` reside at ``location`` over ``[t_start, t_last]``
        (possibly replacing an earlier interval)?"""
        del replacing  # one residency per (file, IS); see IndividualScheduler
        video_id = video.video_id
        profile = self.ledger.profile(video_id, t_start, t_last)
        if not profile.segments:
            return True  # zero-extent candidates occupy no space
        allowed = self.decide(video_id, location, t_start, t_last, profile)
        self.log.record(location, t_start, t_last, profile, allowed)
        return allowed

    def decide(
        self,
        video_id: str,
        location: str,
        t_start: float,
        t_last: float,
        profile: SpaceProfile,
    ) -> bool:
        """:meth:`allows` for a residency of ``video_id`` with space
        ``profile``, unrecorded: the forbidden windows first, then the
        ledger."""
        for loc, (t0, t1) in self.forbidden:
            if loc == location and profile.positive_in(t0, t1):
                return False
        return self.ledger.fits(location, video_id, t_start, t_last, profile)


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
        ledger: StorageLedger,
        *,
        forbidden: list[tuple[str, tuple[float, float]]],
        copies: tuple[Copy, ...] = (),
        log: DecisionLog | None = None,
        kept: tuple[DeliveryInfo, ...] = (),
    ) -> FileSchedule:
        """New ``S_i`` for ``video`` honouring capacity + forbidden windows.

        ``ledger`` mirrors the full integrated schedule and its background
        usage (rolling cycles); the victim's own residencies are excluded
        from its availability answers (they are being replaced wholesale).
        ``copies`` is the greedy's starting state; for a fresh run, the
        victim's committed carryover caches
        (:func:`~repro.core.individual.copies_of` its seeds), which a
        rebuild must keep.

        ``log`` (by default a private one) receives a mark of the greedy's
        plain state before each request, and every decision.  To resume an
        earlier run at request ``k``, pass its first ``k`` deliveries as
        ``kept``, the copies it held before request ``k`` as ``copies`` and
        its log cut there (:meth:`DecisionLog.cut` returns both); only the
        requests from ``k`` on are served.  A fresh run is the resume at
        request 0.
        """
        constraints = ResidencyConstraints(
            ledger, list(forbidden), DecisionLog() if log is None else log
        )
        greedy = IndividualScheduler(self._cm, constraints, self._route_policy)
        session = FileGreedySession(greedy, video, copies, kept)
        for req in sorted(requests)[len(kept):]:
            constraints.log.mark(session.residencies)
            session.serve(req)
        return session.finish()
