"""Phase 1: Individual Video Scheduling (paper Sec. 3.2, Table 2).

``IVSP_solve`` partitions the cycle's requests by video and computes each
file's schedule independently with a greedy ``find_video_schedule`` modeled
on Papadimitriou et al.'s rectilinear heuristic:

Requests for a file are served in chronological order.  At every step the
scheduler prices each available *copy* of the file -- the warehouse(s), which
hold everything permanently for free, and every cache residency opened so far
-- and serves the request from the cheapest one:

* serving from a warehouse costs ``P*B * rate(VW, local_IS)`` (Eq. 4);
* serving from a cache costs the transfer from the cache plus the *extension*
  of the residency's interval to the new service's start time
  (``Ψ_C(t_s, t_u) - Ψ_C(t_s, t_f_old)``), realizing the paper's "the resident
  period of the file has to be extended" option.

Each delivery stream then deposits **zero-cost cache candidates** at every
intermediate storage it traverses (``t_s = t_f =`` stream start, hence
``gamma = 0`` and ``Ψ_C = 0``): files are loaded "by copying data blocks from
streams during transmission", so a passing stream is exactly the opportunity
to introduce a new caching site -- the paper's other option.  A candidate
costs nothing until a later request extends it; unused candidates are pruned
from the final schedule.

A session holds its copies as plain :data:`Copy` tuples, with each copy's
current Ψ_C in a parallel list that changes only when the copy is extended
or replaced, so pricing reads the old Ψ_C instead of recomputing it.  The
:class:`~repro.core.schedule.ResidencyInfo` records are built once, in
:meth:`FileGreedySession.finish`, for the copies the schedule keeps.

The same greedy, parameterized with residency constraints, becomes the
capacity-aware *rejective greedy* of Sec. 4.4 (see
:mod:`repro.core.rejective`).  Admission is cost-first: the greedy prices
every cache copy, then asks the constraints only about the copies that
beat the cheapest warehouse, cheapest first, and serves from the first one
allowed.  A copy already dearer than the warehouse on the network alone is
not even priced: its Ψ_C extension cannot be negative.  The pick is the
cheapest allowed copy, exactly as if every copy had been asked about.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping

from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel, storage_cost
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import RoutingError, ScheduleError
from repro.obs import COUNT_BUCKETS, NULL_OBS, Observability
from repro.topology.routing import Route
from repro.workload.requests import Request, RequestBatch

#: One copy of the file in a greedy session: ``(location, source, t_start,
#: t_last, service_list)``, the fields of its
#: :class:`~repro.core.schedule.ResidencyInfo` after the video id.
Copy = tuple[str, str, float, float, tuple[str, ...]]

#: A priced copy: ``(key, copy index, route, network share)``.
Candidate = tuple[tuple[float, int, int, str], int, Route, float]


def copies_of(residencies: Iterable[ResidencyInfo]) -> tuple[Copy, ...]:
    """The session copies of residency records (seeds of a greedy run)."""
    return tuple(
        (c.location, c.source, c.t_start, c.t_last, c.service_list)
        for c in residencies
    )


class RoutePolicy:
    """Pluggable route selection for the greedy scheduler.

    The default policy always picks the cheapest route and never refuses.
    The bandwidth extension (:mod:`repro.extensions.bandwidth`) overrides
    :meth:`routes` to skip routes whose links are saturated during the
    stream's lifetime and :meth:`commit` to book the chosen route's capacity.
    """

    def __init__(self, router):
        self._router = router

    def routes(
        self, dst: str, t_start: float, t_end: float, bandwidth: float
    ) -> Mapping[str, Route]:
        """Read-only ``{source: route}`` for a stream into ``dst`` over the
        window; a source missing from it is not a candidate.  A query: the
        greedy asks once per request and commits only the winner's route."""
        del t_start, t_end, bandwidth
        return self._router.routes_to(dst)

    def commit(
        self, route: Route, t_start: float, t_end: float, bandwidth: float
    ) -> None:
        """Record that a stream now occupies ``route`` over the window."""
        del route, t_start, t_end, bandwidth


class IndividualScheduler:
    """Greedy per-file scheduler (``find_video_schedule`` of Table 2).

    Args:
        cost_model: Supplies the topology, catalog, router and tariff.
            Cache extensions are priced with
            :func:`~repro.core.costmodel.storage_cost` from the storage
            rates read here, once, so the greedy makes no memo lookups.
            Its :meth:`~repro.core.costmodel.CostModel.cheapest_home`
            prices the warehouse copy: the cheapest routable home of the
            video under the model's replica map, or of every warehouse
            without one, as in the paper.
        constraints: Optional residency constraints; ``None`` reproduces the
            capacity-ignorant Phase-1 behaviour, a
            :class:`~repro.core.rejective.ResidencyConstraints` instance
            turns this into the Sec. 4.4 rejective greedy.  The greedy asks
            ``allows(video, location, t_start, t_last, replacing=copy)``
            of the cache candidates that beat the cheapest warehouse,
            cheapest first, until one is allowed; ``copy`` is the
            :data:`Copy` being extended, the very tuple the session's
            :attr:`FileGreedySession.residencies` holds.  It never asks
            about a deposit: that is zero-extent (γ = 0) and occupies no
            space.  ``allows`` must be a query: whether and in which order
            candidates are asked about may change what it records, never
            what it answers.
        route_policy: Optional :class:`RoutePolicy`; defaults to
            unconditional cheapest-path routing.
        deposit_scope: Where streams open cache candidates: ``"route"``
            (every traversed storage, the default) or ``"destination"``
            (only the user's local storage).  The destination-only variant
            exists for the ablation study -- it is strictly weaker.
        obs: Observability handle (:class:`repro.obs.Observability`);
            defaults to the inert :data:`repro.obs.NULL_OBS`.  When live,
            every :meth:`schedule_file` call records an ``ivsp.video``
            span plus delivery/residency counters.  Purely additive:
            schedules are bit-identical either way.

    All mutable per-solve state lives in the :class:`FileGreedySession`,
    so one instance serves any number of :meth:`schedule_file` calls.
    """

    def __init__(
        self,
        cost_model: CostModel,
        constraints=None,
        route_policy=None,
        *,
        deposit_scope: str = "route",
        obs: Observability | None = None,
    ):
        if deposit_scope not in ("route", "destination"):
            raise ScheduleError(
                f"deposit_scope must be 'route' or 'destination', got "
                f"{deposit_scope!r}"
            )
        self._obs = obs if obs is not None else NULL_OBS
        self._cm = cost_model
        self._constraints = constraints
        self._route_policy = (
            route_policy if route_policy is not None else RoutePolicy(cost_model.router)
        )
        self._deposit_scope = deposit_scope
        # Immutable copies: all per-solve mutable state lives in the
        # per-call FileGreedySession instead.
        topo = cost_model.topology
        if not topo.warehouses:
            raise ScheduleError("topology has no warehouse to serve from")
        self._storage_names = frozenset(s.name for s in topo.storages)
        self._srates = {n.name: n.srate for n in topo.nodes}
        #: ``{video_id: (size, playback)}``, filled on demand.
        self._facts: dict[str, tuple[float, float]] = {}

    # -- public API ----------------------------------------------------------

    def schedule_file(
        self,
        video: VideoFile,
        requests: list[Request],
        *,
        initial_residencies: tuple[ResidencyInfo, ...] = (),
    ) -> FileSchedule:
        """Compute ``S_i`` for one video's chronologically-sorted requests.

        ``initial_residencies`` seeds the greedy with committed caches from a
        previous scheduling cycle (see :mod:`repro.extensions.rolling`): they
        are kept in the output unconditionally and may be extended by this
        cycle's requests, but never shrunk.
        """
        with self._obs.tracer.span(
            "ivsp.video", video=video.video_id, requests=len(requests)
        ) as span:
            session = self.session(video, initial_residencies=initial_residencies)
            for req in sorted(requests):
                session.serve(req)
            fs = session.finish()
            span.set(deliveries=len(fs.deliveries), residencies=len(fs.residencies))
        metrics = self._obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_ivsp_videos_total",
                help="Videos solved by the Phase-1 per-file greedy",
            ).inc()
            metrics.counter(
                "vor_deliveries_total",
                help="Delivery streams committed by Phase-1 solves",
            ).inc(len(fs.deliveries))
            metrics.counter(
                "vor_residencies_total",
                help="Cache residencies committed by Phase-1 solves",
            ).inc(len(fs.residencies))
            metrics.histogram(
                "vor_requests_per_video",
                boundaries=COUNT_BUCKETS,
                help="Requests per scheduled video",
            ).observe(len(requests))
        return fs

    def session(
        self,
        video: VideoFile,
        *,
        initial_residencies: tuple[ResidencyInfo, ...] = (),
    ) -> "FileGreedySession":
        """Incremental per-file greedy: serve requests one at a time.

        Lets callers interleave requests of different videos (the
        bandwidth-aware scheduler admits requests in global chronological
        order) while each video keeps its own cache state, seeded with
        ``initial_residencies``.
        """
        for c in initial_residencies:
            if c.video_id != video.video_id:
                raise ScheduleError(
                    f"seed residency of {c.video_id!r} passed to session of "
                    f"{video.video_id!r}"
                )
        return FileGreedySession(self, video, copies_of(initial_residencies))

    def solve(
        self,
        batch: RequestBatch,
        *,
        seeds: dict[str, tuple[ResidencyInfo, ...]] | None = None,
    ) -> Schedule:
        """``IVSP_solve``: schedule every requested file independently.

        Videos are solved in ``batch.by_video()`` (first-request) order;
        ``seeds`` maps a video id to the carryover residencies seeding its
        greedy (rolling cycles), missing ids seed empty.
        """
        catalog = self._cm.catalog
        seeds = seeds or {}
        schedule = Schedule()
        for video_id, requests in batch.by_video().items():
            schedule.set_file(
                self.schedule_file(
                    catalog[video_id],
                    requests,
                    initial_residencies=seeds.get(video_id, ()),
                )
            )
        return schedule

    # -- greedy internals ------------------------------------------------------

    def _video_facts(self, video_id: str) -> tuple[float, float]:
        """A video's size and P from the model's catalog, as every Ψ_C
        evaluation reads them; computed once per scheduler."""
        facts = self._facts.get(video_id)
        if facts is None:
            entry = self._cm.catalog[video_id]
            facts = self._facts[video_id] = (entry.size, entry.playback)
        return facts


class FileGreedySession:
    """Incremental greedy state for one video (see
    :meth:`IndividualScheduler.session`).

    The state is plain: the :data:`Copy` tuples of :attr:`residencies`, a
    parallel list of their current Ψ_C, and a ``{location: index}`` map.
    A copy's tuple is replaced whenever the copy is extended or a fresher
    candidate takes its slot, so a tuple names one state of one copy and a
    tuple of the list is a snapshot (:class:`~repro.core.rejective.DecisionLog`
    marks are).  ``copies`` is the starting state, ``kept`` the deliveries
    of the requests already served in a resumed run.

    Requests must be served in non-decreasing start-time order; the session
    enforces this because the greedy's cache-extension pricing assumes
    chronological processing.
    """

    def __init__(
        self,
        scheduler: IndividualScheduler,
        video: VideoFile,
        copies: Iterable[Copy] = (),
        kept: tuple[DeliveryInfo, ...] = (),
    ):
        self._scheduler = scheduler
        self._video = video
        self._fs = FileSchedule(video.video_id)
        for d in kept:
            self._fs.add_delivery(d)
        self._copies: list[Copy] = list(copies)
        # Ψ_C reads size and P from the model's catalog entry
        self._size, self._playback = scheduler._video_facts(video.video_id)
        self._srates = scheduler._srates
        #: Ψ_C of each copy at its current span, index for index.
        self._psi = [
            storage_cost(self._srates[c[0]], self._size, self._playback, c[3] - c[2])
            for c in self._copies
        ]
        #: ``{location: index into _copies}``, the last index winning.
        self._occupied = {c[0]: i for i, c in enumerate(self._copies)}
        self._last_time = kept[-1].start_time if kept else -math.inf

    def serve(self, req: Request) -> None:
        """Serve one request, updating cache state and the file schedule:
        price the copies, serve ``req`` from the winner and open its
        stream's deposits.

        Raises :class:`~repro.errors.ScheduleError` if no feasible source
        exists (possible only under a restrictive route policy) -- in that
        case the session state is unchanged and the caller may reject the
        request and continue.
        """
        start = req.start_time
        if start < self._last_time:
            raise ScheduleError(
                f"requests must be served chronologically: {start} < "
                f"{self._last_time}"
            )
        video = self._video
        if req.video_id != video.video_id:
            raise ScheduleError(
                f"request for {req.video_id!r} passed to schedule of "
                f"{video.video_id!r}"
            )
        scheduler = self._scheduler
        pick, home = self._best_candidate(req)
        (cost, hops, _, source), idx, route, network = pick
        journal = scheduler._obs.journal
        if journal.enabled:
            journal.emit(
                "phase1-assigned",
                request=req,
                source=source,
                source_kind="cache" if idx >= 0 else "warehouse",
                route=route.nodes,
                hops=hops,
                psi_d=network,
                psi_c=cost - network,
                warehouse=None if home is None else home[0][3],
                warehouse_psi_d=None if home is None else home[3],
            )
        if idx >= 0:
            copies = self._copies
            location, src, t_start, t_last, services = copies[idx]
            if start > t_last:  # extended, never shrunk
                t_last = start
                self._psi[idx] = storage_cost(
                    self._srates[location], self._size, self._playback,
                    start - t_start,
                )
            copies[idx] = (location, src, t_start, t_last, services + (req.user_id,))
        self._fs.add_delivery(DeliveryInfo(video.video_id, route.nodes, start, req))
        scheduler._route_policy.commit(
            route, start, start + video.playback, video.bandwidth
        )
        self._deposit_candidates(route.nodes, start)
        self._last_time = start

    def finish(self) -> FileSchedule:
        """Finalize: build the records of the copies the schedule keeps and
        return ``S_i``.

        Unused candidates are pruned.  Zero-extent residencies that *served*
        someone (real-time relays of simultaneous streams) are kept -- they
        back their deliveries.
        """
        video_id = self._video.video_id
        self._fs.residencies = [
            ResidencyInfo(video_id, *c)
            for c in self._copies
            if c[3] > c[2] or c[4]
        ]
        return self._fs

    @property
    def schedule(self) -> FileSchedule:
        """The schedule under construction (deliveries only are reliable)."""
        return self._fs

    @property
    def residencies(self) -> list[Copy]:
        """Live view of the session's copies as plain :data:`Copy` tuples,
        including unused candidates (do not mutate).  Each tuple is the one
        ``allows(..., replacing=)`` names while its copy is priced, so a
        capacity oracle may skip the replaced copy by identity."""
        return self._copies

    # -- greedy step -----------------------------------------------------------

    def _best_candidate(self, req: Request) -> tuple[Candidate, Candidate | None]:
        """The cheapest feasible copy and the cheapest routable home
        warehouse (None when no home is routable), which is the pick
        unless an allowed cache beats it.  Index -1 marks a warehouse; the
        key is ``(cost, hops, kind, source)`` (caches kind 0), the lowest
        index winning equal keys."""
        scheduler, video = self._scheduler, self._video
        cm = scheduler._cm
        if req.local_storage not in cm.topology:
            # an unknown destination is a malformed request, not a copy that
            # happens to be unreachable -- keep raising, never skip
            raise RoutingError(f"unknown destination node {req.local_storage!r}")
        start = req.start_time
        volume = video.network_volume * cm.network_multiplier(start)
        # one route table per request: a copy whose source it leaves out is
        # not a candidate.  Ties never depend on iteration order (the key
        # includes the source name), so skipping keeps picks deterministic.
        routes = scheduler._route_policy.routes(
            req.local_storage, start, start + video.playback, video.bandwidth
        )
        route_of = routes.get
        home = cm.cheapest_home(video.video_id, start, routes)
        if home is not None:
            network, route = home
            home = ((network, route.hops, 1, route.nodes[0]), -1, route, network)
        # One pass prices every cache copy (DESIGN.md §4).  ``bar`` is the
        # key a copy must beat and ``bound`` its cost: the best key so far
        # without constraints, the cheapest warehouse's with them (the
        # beaters are then asked about cheapest first).  A copy dearer
        # than ``bound`` on the network alone cannot win: its Ψ_C
        # extension is >= 0.
        constraints = scheduler._constraints
        contenders = None if constraints is None else []
        best = home
        bar = None if home is None else home[0]
        bound = math.inf if home is None else bar[0]
        copies, psi, srates = self._copies, self._psi, self._srates
        size, playback = self._size, self._playback
        for idx, (location, _, t_start, t_last, _) in enumerate(copies):
            if t_start > start:
                continue  # cache not yet filled when the service starts
            route = route_of(location)
            if route is None:
                continue
            network = volume * route.rate
            if network > bound:
                continue
            if start > t_last:
                cost = network + (
                    storage_cost(srates[location], size, playback, start - t_start)
                    - psi[idx]
                )
            else:
                cost = network + 0.0  # held past the start: a free extension
            # ``bound`` is ``bar``'s cost, so only a tie builds the key
            # before it is known to win
            if (
                bar is None
                or cost < bound
                or (cost == bound and (cost, route.hops, 0, location) < bar)
            ):
                key = (cost, route.hops, 0, location)
                candidate = (key, idx, route, network)
                if contenders is None:
                    best, bar, bound = candidate, key, cost
                else:
                    contenders.append(candidate)
        if contenders:
            contenders.sort()
            for candidate in contenders:
                c = copies[candidate[1]]
                if constraints.allows(
                    video, c[0], c[2], max(start, c[3]), replacing=c
                ):
                    best = candidate
                    break
        if best is None:
            # with the default route policy on a healthy topology some home
            # warehouse is always feasible; a restrictive policy (e.g.
            # bandwidth-aware), a partitioned masked topology, or a video
            # whose every home failed may exhaust options
            raise ScheduleError(f"no feasible source for request {req}")
        if not math.isfinite(best[0][0]):
            raise ScheduleError(f"non-finite candidate cost for request {req}")
        return best, home

    def _deposit_candidates(self, nodes: tuple[str, ...], t: float) -> None:
        """Open zero-cost cache candidates at storages the stream along
        ``nodes``, starting at ``t``, traverses.

        A node gets a candidate unless it already holds a copy of this
        file that a future request could extend.  An *unused* candidate
        (``t_f == t_s``, no services) is replaced by a fresher one: for
        unused candidates a later ``t_s`` strictly dominates (extension cost
        grows with ``t_f - t_s`` while causality only needs ``t_s <= t_u``).
        A one-node route (a serve from the local cache) deposits nothing.
        A candidate's Ψ_C is that of a zero span, 0.0.
        """
        scheduler = self._scheduler
        source = nodes[0]
        if scheduler._deposit_scope != "route":
            nodes = nodes[-1:]
        storages = scheduler._storage_names
        copies, psi, occupied = self._copies, self._psi, self._occupied
        for node in nodes:
            if node == source or node not in storages:
                continue  # the serving copy itself lives at the source
            existing_idx = occupied.get(node)
            if existing_idx is None:
                occupied[node] = len(copies)
                copies.append((node, source, t, t, ()))
                psi.append(0.0)
                continue
            _, _, t_start, t_last, services = copies[existing_idx]
            if t_last != t_start or services:
                continue
            copies[existing_idx] = (node, source, t, t, ())
            psi[existing_idx] = 0.0
