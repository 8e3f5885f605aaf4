"""Reference greedy: ``find_video_schedule`` written over residency records.

:class:`ReferenceGreedy` is the per-file greedy of paper Table 2 in its
straightforward form.  A session holds
:class:`~repro.core.schedule.ResidencyInfo` records; every request asks the
route policy for a table per copy, prices each copy's old and new Ψ_C
through :meth:`~repro.core.costmodel.CostModel.residency_cost_for`,
extends the winner with :meth:`ResidencyInfo.extended` and opens its
deposits as new records.  It shares no step code with
:mod:`repro.core.individual`: only the leaf primitives (the cost model,
the records, the route policy and the constraints under test).

Two admission orders:

* ``eager=True`` asks the constraints about every cache copy in residency
  order before pricing it; the pick is the first minimum key over the
  warehouses, then the allowed caches.
* ``eager=False`` prices every copy first and asks about the ones that
  beat the cheapest warehouse in ``(key, index)`` order, stopping at the
  first allowed one.  That is the order the kernel asks in, so a logging
  constraint records the same :class:`~repro.core.rejective.DecisionLog`.

Both pick the same copy.  ``tests/core/test_candidate_admission.py`` holds
the kernel to this reference; :mod:`tests.core.sorp_reference` runs its
reference SORP on the eager form.
"""

from __future__ import annotations

import math

from repro.core.rejective import DecisionLog, ResidencyConstraints
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.core.spacefunc import (
    UsageTimeline,
    capacity_slack,
    fits_under,
    residency_profile,
)
from repro.errors import RoutingError, ScheduleError
from repro.obs import NULL_OBS
from repro.topology.routing import Router


class ReferenceGreedy:
    """Record-based greedy with the kernel's constructor and session API."""

    def __init__(
        self,
        cost_model,
        constraints=None,
        route_policy=None,
        *,
        deposit_scope="route",
        obs=None,
        eager=True,
    ):
        self.cm = cost_model
        self.constraints = constraints
        self.route_policy = route_policy
        self.deposit_scope = deposit_scope
        self.obs = obs if obs is not None else NULL_OBS
        self.eager = eager
        self._router = Router(cost_model.topology)

    def solve(self, batch, *, seeds=None):
        seeds = seeds or {}
        return Schedule(
            self.schedule_file(
                self.cm.catalog[video_id],
                requests,
                initial_residencies=seeds.get(video_id, ()),
            )
            for video_id, requests in batch.by_video().items()
        )

    def schedule_file(self, video, requests, *, initial_residencies=()):
        session = self.session(video, initial_residencies=initial_residencies)
        for req in sorted(requests):
            session.serve(req)
        return session.finish()

    def session(self, video, *, initial_residencies=(), kept=()):
        return ReferenceSession(self, video, initial_residencies, kept)

    def routes(self, dst, t0, t1, bandwidth):
        if self.route_policy is None:
            return self._router.routes_to(dst)
        return self.route_policy.routes(dst, t0, t1, bandwidth)

    def commit(self, route, t0, t1, bandwidth):
        if self.route_policy is not None:
            self.route_policy.commit(route, t0, t1, bandwidth)


class ReferenceSession:
    """One video's records, served one request at a time."""

    def __init__(self, greedy, video, residencies=(), kept=()):
        for c in residencies:
            if c.video_id != video.video_id:
                raise ScheduleError(f"seed residency of {c.video_id!r}")
        self.greedy = greedy
        self.video = video
        self.residencies = list(residencies)
        self.schedule = FileSchedule(video.video_id, list(kept))
        self.last = kept[-1].start_time if kept else -math.inf

    def serve(self, req):
        if req.start_time < self.last:
            raise ScheduleError("requests must be served chronologically")
        greedy, video = self.greedy, self.video
        pick, home = self._pick(req)
        (cost, hops, _, source), idx, route, network = pick
        start = req.start_time
        journal = greedy.obs.journal
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
            old = self.residencies[idx]
            self.residencies[idx] = old.extended(
                max(start, old.t_last), req.user_id
            )
        self.schedule.add_delivery(
            DeliveryInfo(video.video_id, route.nodes, start, req)
        )
        greedy.commit(route, start, start + video.playback, video.bandwidth)
        self._deposit(route.nodes, start)
        self.last = start

    def finish(self):
        self.schedule.residencies = [
            c for c in self.residencies if c.t_last > c.t_start or c.service_list
        ]
        return self.schedule

    def _pick(self, req):
        greedy, video, cm = self.greedy, self.video, self.greedy.cm
        if req.local_storage not in cm.topology:
            raise RoutingError(f"unknown destination node {req.local_storage!r}")
        start = req.start_time
        window = (req.local_storage, start, start + video.playback, video.bandwidth)
        volume = video.network_volume * cm.network_multiplier(start)
        home = None
        for w in cm.homes(video.video_id):
            route = greedy.routes(*window).get(w)
            if route is None:
                continue
            network = volume * route.rate
            cand = ((network, route.hops, 1, w), -1, route, network)
            if home is None or cand[0] < home[0]:
                home = cand
        constraints = greedy.constraints
        priced = []
        for idx, c in enumerate(self.residencies):
            if c.t_start > start:
                continue
            t_last = max(start, c.t_last)
            if greedy.eager and not self._allowed(c, t_last):
                continue
            route = greedy.routes(*window).get(c.location)
            if route is None:
                continue
            ext = cm.residency_cost_for(
                video.video_id, c.location, c.t_start, t_last
            ) - cm.residency_cost_for(video.video_id, c.location, c.t_start, c.t_last)
            network = volume * route.rate
            priced.append(
                ((network + ext, route.hops, 0, c.location), idx, route, network)
            )
        if greedy.eager or constraints is None:
            best = home
            for cand in priced:
                if best is None or cand[0] < best[0]:
                    best = cand
        else:
            best = home
            beaters = sorted(
                cand for cand in priced if home is None or cand[0] < home[0]
            )
            for cand in beaters:
                c = self.residencies[cand[1]]
                if self._allowed(c, max(start, c.t_last)):
                    best = cand
                    break
        if best is None:
            raise ScheduleError(f"no feasible source for request {req}")
        if not math.isfinite(best[0][0]):
            raise ScheduleError(f"non-finite candidate cost for request {req}")
        return best, home

    def _allowed(self, c, t_last):
        constraints = self.greedy.constraints
        return constraints is None or constraints.allows(
            self.video, c.location, c.t_start, t_last, replacing=c
        )

    def _deposit(self, nodes, t):
        source = nodes[0]
        if self.greedy.deposit_scope != "route":
            nodes = nodes[-1:]
        storages = {s.name for s in self.greedy.cm.topology.storages}
        for node in nodes:
            if node == source or node not in storages:
                continue
            at = [i for i, c in enumerate(self.residencies) if c.location == node]
            candidate = ResidencyInfo(self.video.video_id, node, source, t, t)
            if not at:
                self.residencies.append(candidate)
                continue
            existing = self.residencies[at[-1]]
            if existing.t_last == existing.t_start and not existing.service_list:
                self.residencies[at[-1]] = candidate


class ReferenceLiveConstraints:
    """The bandwidth scheduler's live capacity oracle over reference
    sessions: every other record at the location, the replaced one left
    out by identity."""

    def __init__(self, topology, catalog):
        self._topo = topology
        self._catalog = catalog
        self._sessions = []

    def register(self, session):
        self._sessions.append(session)

    def allows(self, video, location, t_start, t_last, *, replacing=None):
        profile = residency_profile(video.size, video.playback, t_start, t_last)
        if not profile.segments:
            return True
        capacity = self._topo.capacity(location)
        if profile.peak > capacity_slack(capacity):
            return False
        others = [
            c.profile(self._catalog[c.video_id])
            for session in self._sessions
            for c in session.residencies
            if c is not replacing and c.location == location
        ]
        return fits_under(UsageTimeline(others), profile, capacity)


def reference_reschedule(
    cost_model, video, requests, ledger, *, forbidden, residencies=(),
    log=None, kept=(), route_policy=None,
):
    """The rejective greedy over records, asking in the kernel's order.

    ``log`` receives a mark of the records held before each request and
    every decision; resume at request ``k`` with the first ``k``
    deliveries as ``kept`` and the records and log ``DecisionLog.cut(k)``
    returns."""
    constraints = ResidencyConstraints(
        ledger, list(forbidden), DecisionLog() if log is None else log
    )
    greedy = ReferenceGreedy(cost_model, constraints, route_policy, eager=False)
    session = greedy.session(video, initial_residencies=residencies, kept=kept)
    for req in sorted(requests)[len(kept):]:
        constraints.log.mark(session.residencies)
        session.serve(req)
    return session.finish()
