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
from collections.abc import Mapping

from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel, storage_cost
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.errors import RoutingError, ScheduleError
from repro.obs import COUNT_BUCKETS, NULL_OBS, Observability
from repro.topology.routing import Route
from repro.workload.requests import Request, RequestBatch

#: A priced copy: ``(key, residency index, route, network share)``.
Candidate = tuple[tuple[float, int, int, str], int, Route, float]


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
            Its replica map, if any, restricts a video's warehouse
            candidates to its homes in the topology; without one every
            warehouse holds everything, as in the paper.
        constraints: Optional residency constraints; ``None`` reproduces the
            capacity-ignorant Phase-1 behaviour, a
            :class:`~repro.core.rejective.ResidencyConstraints` instance
            turns this into the Sec. 4.4 rejective greedy.  The greedy asks
            ``allows(video, location, t_start, t_last, replacing=...)``
            of the cache candidates that beat the cheapest warehouse,
            cheapest first, until one is allowed.  It never asks about a
            deposit: that is zero-extent (γ = 0) and occupies no space.
            ``allows`` must be a query: whether and in which order
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
        self._warehouses = tuple(w.name for w in topo.warehouses)
        if not self._warehouses:
            raise ScheduleError("topology has no warehouse to serve from")
        self._warehouse_set = frozenset(self._warehouses)
        self._storage_names = frozenset(s.name for s in topo.storages)
        self._srates = {n.name: n.srate for n in topo.nodes}
        self._replicas = cost_model.replicas
        #: ``{video_id: (home warehouses, size, playback)}``, filled on demand.
        self._facts: dict[str, tuple[tuple[str, ...], float, float]] = {}

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
        kept: tuple[DeliveryInfo, ...] = (),
    ) -> "FileGreedySession":
        """Incremental per-file greedy: serve requests one at a time.

        Lets callers interleave requests of different videos (the
        bandwidth-aware scheduler admits requests in global chronological
        order) while each video keeps its own cache state.  ``kept``
        resumes a session: the deliveries of the requests already served,
        with ``initial_residencies`` the cache state they left.
        """
        # fail fast: residency pricing will need the catalog entry later
        self._cm.catalog[video.video_id]
        return FileGreedySession(self, video, initial_residencies, kept)

    def serve_into(
        self,
        video: VideoFile,
        req: Request,
        residencies: list[ResidencyInfo],
        fs: FileSchedule,
        occupied: dict[str, int],
    ) -> None:
        """One greedy step (used by sessions): price the copies, serve
        ``req`` from the winner and open its stream's deposits.
        ``occupied`` maps each location in ``residencies`` to its index
        there; the step keeps it current."""
        if req.video_id != video.video_id:
            raise ScheduleError(
                f"request for {req.video_id!r} passed to schedule of "
                f"{video.video_id!r}"
            )
        pick, home = self._best_candidate(video, req, residencies)
        (cost, hops, _, source), idx, route, network = pick
        journal = self._obs.journal
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
        start = req.start_time
        if idx >= 0:
            old = residencies[idx]
            residencies[idx] = old.extended(
                start if start >= old.t_last else old.t_last, req.user_id
            )
        fs.add_delivery(DeliveryInfo(video.video_id, route.nodes, start, req))
        self._route_policy.commit(
            route, start, start + video.playback, video.bandwidth
        )
        self._deposit_candidates(
            video.video_id, route.nodes, start, residencies, occupied
        )

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

    def _video_facts(self, video_id: str) -> tuple[tuple[str, ...], float, float]:
        """A video's warehouse candidates (its homes, or every warehouse)
        and its size and P from the model's catalog, as every Ψ_C
        evaluation reads them; computed once per scheduler."""
        facts = self._facts.get(video_id)
        if facts is None:
            homes = self._warehouses
            if self._replicas is not None:
                own = self._replicas.homes(video_id)
                homes = tuple(h for h in own if h in self._warehouse_set)
            entry = self._cm.catalog[video_id]
            facts = self._facts[video_id] = (homes, entry.size, entry.playback)
        return facts

    def _best_candidate(
        self,
        video: VideoFile,
        req: Request,
        residencies: list[ResidencyInfo],
    ) -> tuple[Candidate, Candidate | None]:
        """The cheapest feasible copy and the cheapest routable home
        warehouse (None when no home is routable), which is the pick
        unless an allowed cache beats it.  Index -1 marks a warehouse; the
        key is ``(cost, hops, kind, source)`` (caches kind 0), the lowest
        index winning equal keys."""
        if req.local_storage not in self._cm.topology:
            # an unknown destination is a malformed request, not a copy that
            # happens to be unreachable -- keep raising, never skip
            raise RoutingError(f"unknown destination node {req.local_storage!r}")
        homes, size, playback = self._video_facts(video.video_id)
        start = req.start_time
        volume = video.network_volume * self._cm.network_multiplier(start)
        # one route table per request: a copy whose source it leaves out is
        # not a candidate.  Ties never depend on iteration order (the key
        # includes the source name), so skipping keeps picks deterministic.
        route_of = self._route_policy.routes(
            req.local_storage, start, start + video.playback, video.bandwidth
        ).get
        home = None
        for w in homes:
            route = route_of(w)
            if route is None:
                continue
            network = volume * route.rate
            key = (network, route.hops, 1, w)
            if home is None or key < home[0]:
                home = (key, -1, route, network)
        # Price every cache copy first; ask the constraints only about the
        # ones that beat the cheapest warehouse, cheapest first (DESIGN.md
        # §4).  A copy dearer on the network alone cannot win: its Ψ_C
        # extension is >= 0.
        srates = self._srates
        contenders = []
        for idx, c in enumerate(residencies):
            if c.t_start > start:
                continue  # cache not yet filled when the service starts
            # priced as (location, t_start, t_last): only the winning
            # candidate is built, in serve_into.  A cache already held past
            # the start (a seed) serves at a zero Ψ_C extension.
            t_last = start if start >= c.t_last else c.t_last
            route = route_of(c.location)
            if route is None:
                continue
            network = volume * route.rate
            if home is not None and network > home[0][0]:
                continue
            srate = srates[c.location]
            ext_cost = storage_cost(
                srate, size, playback, t_last - c.t_start
            ) - storage_cost(srate, size, playback, c.t_last - c.t_start)
            key = (network + ext_cost, route.hops, 0, c.location)
            if home is None or key < home[0]:
                contenders.append((key, idx, route, network))
        constraints = self._constraints
        if constraints is None:
            pick = min(contenders, default=None)
        else:
            pick = None
            contenders.sort()
            for contender in contenders:
                c = residencies[contender[1]]
                if constraints.allows(
                    video, c.location, c.t_start, max(start, c.t_last),
                    replacing=c,
                ):
                    pick = contender
                    break
        best = pick or home
        if best is None:
            # with the default route policy on a healthy topology some home
            # warehouse is always feasible; a restrictive policy (e.g.
            # bandwidth-aware), a partitioned masked topology, or a video
            # whose every home failed may exhaust options
            raise ScheduleError(f"no feasible source for request {req}")
        if not math.isfinite(best[0][0]):
            raise ScheduleError(f"non-finite candidate cost for request {req}")
        return best, home

    def _deposit_candidates(
        self,
        video_id: str,
        nodes: tuple[str, ...],
        t: float,
        residencies: list[ResidencyInfo],
        occupied: dict[str, int],
    ) -> None:
        """Open zero-cost cache candidates at storages the stream along
        ``nodes``, starting at ``t``, traverses.

        A node gets a candidate unless it already holds a residency of this
        file that a future request could extend.  An *unused* candidate
        (``t_f == t_s``, no services) is replaced by a fresher one: for
        unused candidates a later ``t_s`` strictly dominates (extension cost
        grows with ``t_f - t_s`` while causality only needs ``t_s <= t_u``).
        A one-node route (a serve from the local cache) deposits nothing.
        ``occupied`` is the session's ``{location: index}`` map of
        ``residencies``; an appended candidate is added to it.
        """
        source = nodes[0]
        if self._deposit_scope != "route":
            nodes = nodes[-1:]
        storages = self._storage_names
        for node in nodes:
            if node == source or node not in storages:
                continue  # the serving copy itself lives at the source
            existing_idx = occupied.get(node)
            if existing_idx is not None:
                existing = residencies[existing_idx]
                if existing.t_last != existing.t_start or existing.service_list:
                    continue
            candidate = ResidencyInfo(video_id, node, source, t, t, ())
            if existing_idx is None:
                occupied[node] = len(residencies)
                residencies.append(candidate)
            else:
                residencies[existing_idx] = candidate


class FileGreedySession:
    """Incremental greedy state for one video (see
    :meth:`IndividualScheduler.session`).

    Requests must be served in non-decreasing start-time order; the session
    enforces this because the greedy's cache-extension pricing assumes
    chronological processing.
    """

    def __init__(
        self,
        scheduler: IndividualScheduler,
        video: VideoFile,
        initial_residencies: tuple[ResidencyInfo, ...] = (),
        kept: tuple[DeliveryInfo, ...] = (),
    ):
        self._scheduler = scheduler
        self._video = video
        self._fs = FileSchedule(video.video_id)
        for d in kept:
            self._fs.add_delivery(d)
        self._residencies: list[ResidencyInfo] = []
        for c in initial_residencies:
            if c.video_id != video.video_id:
                raise ScheduleError(
                    f"seed residency of {c.video_id!r} passed to session of "
                    f"{video.video_id!r}"
                )
            self._residencies.append(c)
        #: ``{location: index into _residencies}``, the last index winning.
        self._occupied = {c.location: i for i, c in enumerate(self._residencies)}
        self._last_time = kept[-1].start_time if kept else -math.inf

    def serve(self, req: Request) -> None:
        """Serve one request, updating cache state and the file schedule.

        Raises :class:`~repro.errors.ScheduleError` if no feasible source
        exists (possible only under a restrictive route policy) -- in that
        case the session state is unchanged and the caller may reject the
        request and continue.
        """
        if req.start_time < self._last_time:
            raise ScheduleError(
                f"requests must be served chronologically: {req.start_time} < "
                f"{self._last_time}"
            )
        self._scheduler.serve_into(
            self._video, req, self._residencies, self._fs, self._occupied
        )
        self._last_time = req.start_time

    def finish(self) -> FileSchedule:
        """Finalize: prune unused cache candidates and return ``S_i``.

        Zero-extent residencies that *served* someone (real-time relays of
        simultaneous streams) are kept -- they back their deliveries.
        """
        self._fs.residencies = [
            c
            for c in self._residencies
            if c.t_last > c.t_start or c.service_list
        ]
        return self._fs

    @property
    def schedule(self) -> FileSchedule:
        """The schedule under construction (deliveries only are reliable)."""
        return self._fs

    @property
    def residencies(self) -> list[ResidencyInfo]:
        """Live view of the session's current cache state (do not mutate)."""
        return self._residencies
