"""Bandwidth-constrained scheduling (the paper's future-work extension).

The base model reserves ``B_i`` bytes/s on every link of a delivery route for
one playback length but never checks link capacities.  This extension adds:

* :class:`LinkBandwidthTracker` -- per-link interval booking; a window's
  peak load is read off :func:`~repro.core.spacefunc.flat_timeline`, the
  sweep the replay's :class:`~repro.sim.engine.LinkLoad` checks links with,
  so admission and replay sum the same flat segments,
* :class:`BandwidthRoutePolicy` -- a :class:`~repro.core.individual.RoutePolicy`
  that skips saturated routes, falling back to the k cheapest alternates
  (Yen's algorithm via the router),
* :class:`BandwidthAwareScheduler` -- a two-phase scheduler variant that
  books link capacity as it serves requests chronologically across *all*
  files and applies admission control: a request with no feasible source
  route is **rejected** (recorded, not served) rather than over-committing.

Serving order across files is globally chronological so earlier reservations
get first claim on links, matching how an on-line booking system would admit
VOR requests.
"""

from __future__ import annotations

from bisect import insort
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.individual import IndividualScheduler, RoutePolicy
from repro.core.rejective import fits_under
from repro.core.schedule import Schedule
from repro.core.sorp import ResolutionStats
from repro.core.spacefunc import (
    UsageTimeline,
    capacity_slack,
    flat_timeline,
    residency_profile,
)
from repro.errors import RoutingError, ScheduleError
from repro.topology.graph import Topology, edge_key
from repro.topology.routing import Route, Router
from repro.topology.validation import validate_topology
from repro.workload.requests import Request, RequestBatch

#: Alternate routes :class:`BandwidthAwareScheduler` tries per source when
#: the cheapest is saturated.
K_ROUTES = 4


class LinkBandwidthTracker:
    """Books stream bandwidth on links and answers feasibility queries.

    Bookings are half-open intervals ``[t0, t1)`` at a constant rate; a
    window's peak is the peak of the bookings' flat runs clipped to it,
    summed by the same :func:`~repro.core.spacefunc.flat_timeline` sweep
    the replay's link loads use.
    """

    def __init__(self, topology: Topology):
        self._topo = topology
        self._bookings: dict[tuple[str, str], list[tuple[float, float, float]]] = {}

    def usage_max(self, a: str, b: str, t0: float, t1: float) -> float:
        """Peak booked bandwidth on edge ``{a, b}`` during ``[t0, t1)``."""
        return flat_timeline(
            (max(s, t0), min(e, t1), bw)
            for s, e, bw in self._bookings.get(edge_key(a, b), ())
            if s < t1 and e > t0
        ).peak

    def fits(self, route: Route, t0: float, t1: float, bandwidth: float) -> bool:
        """Can a ``bandwidth`` stream use every edge of ``route`` in the window?"""
        for a, b in zip(route.nodes, route.nodes[1:]):
            cap = self._topo.edge(a, b).bandwidth
            if cap == float("inf"):
                continue
            if self.usage_max(a, b, t0, t1) + bandwidth > capacity_slack(cap):
                return False
        return True

    def book(self, route: Route, t0: float, t1: float, bandwidth: float) -> None:
        """Reserve the stream's bandwidth on every edge of the route."""
        for a, b in zip(route.nodes, route.nodes[1:]):
            insort(
                self._bookings.setdefault(edge_key(a, b), []),
                (t0, t1, bandwidth),
            )

    def peak(self, a: str, b: str) -> float:
        """All-time peak booked bandwidth on one edge."""
        return flat_timeline(self._bookings.get(edge_key(a, b), ())).peak


class _FittingRoutes(Mapping):
    """Lazy ``{source: route}`` of one stream: a source maps to the first
    of its k cheapest routes whose links fit the stream, and is missing
    when none does.  Looking up books nothing."""

    def __init__(self, policy: "BandwidthRoutePolicy", *stream) -> None:
        self._policy, self._stream = policy, stream  # (dst, t0, t1, bandwidth)

    def get(self, src, default=None):
        dst, t_start, t_end, bandwidth = self._stream
        router = self._policy._router
        try:
            if src == dst:
                return router.route(src, dst)
            for route in router.k_cheapest_routes(src, dst, self._policy._k):
                if self._policy._tracker.fits(route, t_start, t_end, bandwidth):
                    return route
        except RoutingError:
            pass
        return default

    def __getitem__(self, src):
        if (route := self.get(src)) is None:
            raise KeyError(src)
        return route

    def __iter__(self):
        reach = self._policy._router.routes_to(self._stream[0])
        return filter(self.__contains__, reach)

    def __len__(self):
        return sum(1 for _ in self)


class BandwidthRoutePolicy(RoutePolicy):
    """Route policy that respects link capacities with k-alternate fallback:
    its lazy :meth:`routes` table gives a source's cheapest route that fits
    the bookings over the stream's window.  Only :meth:`commit` books."""

    def __init__(self, router: Router, tracker: LinkBandwidthTracker, *, k: int = 4):
        super().__init__(router)
        if k < 1:
            raise ScheduleError(f"k must be >= 1, got {k}")
        self._tracker = tracker
        self._k = k
        self.diverted = 0  # streams that had to leave the cheapest route

    def routes(
        self, dst: str, t_start: float, t_end: float, bandwidth: float
    ) -> Mapping[str, Route]:
        return _FittingRoutes(self, dst, t_start, t_end, bandwidth)

    def commit(
        self, route: Route, t_start: float, t_end: float, bandwidth: float
    ) -> None:
        if route.hops > 0:
            cheapest = self._router.route(route.src, route.dst)
            if route.nodes != cheapest.nodes:
                self.diverted += 1
        self._tracker.book(route, t_start, t_end, bandwidth)


class LiveCapacityConstraints:
    """Storage-capacity constraints evaluated against live greedy sessions.

    The bandwidth-aware scheduler admits requests in global chronological
    order, so residencies accumulate across many concurrently-open per-file
    sessions.  This oracle prices every new/extended residency against the
    *current* combined usage of all sessions (minus the residency being
    replaced), making the admitted schedule storage-feasible by
    construction -- no overflow-resolution phase is needed, and bandwidth
    bookings made during admission stay authoritative.
    """

    def __init__(self, topology: Topology, catalog: VideoCatalog):
        self._topo = topology
        self._catalog = catalog
        self._sessions: list = []

    def register(self, session) -> None:
        self._sessions.append(session)

    def allows(self, video, location, t_start, t_last, *, replacing=None) -> bool:
        profile = residency_profile(video.size, video.playback, t_start, t_last)
        if not profile.segments:
            return True  # zero-extent candidates occupy no space
        capacity = self._topo.capacity(location)
        if profile.peak > capacity_slack(capacity):
            return False
        # sessions hold plain (location, source, t_start, t_last, services)
        # copies; the replaced one is the very tuple ``replacing`` names
        others = []
        for session in self._sessions:
            for c in session.residencies:
                if c is replacing or c[0] != location:
                    continue
                other = self._catalog[session.schedule.video_id]
                others.append(
                    residency_profile(other.size, other.playback, c[2], c[3])
                )
        return fits_under(UsageTimeline(others), profile, capacity)


@dataclass
class BandwidthAwareResult:
    """Outcome of a bandwidth-constrained scheduling run."""

    schedule: Schedule
    cost: CostBreakdown
    resolution: ResolutionStats
    rejected: list[Request] = field(default_factory=list)
    diverted_streams: int = 0

    @property
    def total_cost(self) -> float:
        return self.cost.total

    @property
    def admitted(self) -> int:
        return len(self.schedule.deliveries)


class BandwidthAwareScheduler:
    """Admission-controlled scheduler honouring links *and* storage.

    Requests are admitted in global chronological order, one file-greedy
    step at a time.  Two live oracles make the result feasible **by
    construction**:

    * a shared :class:`LinkBandwidthTracker` books every stream's bandwidth
      on its route (k-cheapest alternates tried when the cheapest is
      saturated);
    * a :class:`LiveCapacityConstraints` oracle prices every caching
      decision against the combined current residencies, so storages never
      over-commit and no overflow-resolution phase is needed afterwards
      (rerouting victims post hoc would invalidate the link bookings).

    Requests with no feasible source route are rejected and reported.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
    ):
        validate_topology(topology)
        self.topology = topology
        self.catalog = catalog
        self.cost_model = CostModel(topology, catalog)
        self.tracker = LinkBandwidthTracker(topology)
        self._policy = BandwidthRoutePolicy(
            self.cost_model.router, self.tracker, k=K_ROUTES
        )
        self._capacity = LiveCapacityConstraints(topology, catalog)
        self._greedy = IndividualScheduler(
            self.cost_model,
            constraints=self._capacity,
            route_policy=self._policy,
        )

    def solve(self, batch: RequestBatch) -> BandwidthAwareResult:
        rejected: list[Request] = []
        admitted: list[Request] = []
        sessions: dict[str, object] = {}
        # global chronological admission: earlier reservations book links
        # first; each video keeps its own incremental greedy session so cache
        # state and bandwidth bookings accumulate consistently.
        for req in batch:
            session = sessions.get(req.video_id)
            if session is None:
                session = self._greedy.session(self.catalog[req.video_id])
                self._capacity.register(session)
                sessions[req.video_id] = session
            try:
                session.serve(req)
            except ScheduleError:
                rejected.append(req)
                continue
            admitted.append(req)
        final = Schedule(s.finish() for s in sessions.values()).pruned()
        cost = self.cost_model.schedule_cost(final)
        stats = ResolutionStats(phase1_cost=cost.total, resolved=cost)
        return BandwidthAwareResult(
            schedule=final,
            cost=cost,
            resolution=stats,
            rejected=rejected,
            diverted_streams=self._policy.diverted,
        )
