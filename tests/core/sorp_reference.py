"""Reference SORP victim selection: every trial rebuilt from scratch.

This is the straightforward evaluation of ``SORP_solve`` (paper Table 3)
that :func:`repro.core.sorp.resolve_overflows` must reproduce bit for bit:
each round prices every (overflow, member) reschedule with a fresh
availability oracle whose per-location timelines are rebuilt from the
working schedule, and every detection sweep covers every storage.  Its
greedy, :class:`EagerIndividualScheduler`, asks the constraints about
every cache candidate in residency order before pricing it.  It shares
only the leaf primitives (``fits_under``, ``detect_overflows`` without an
index, the greedy's apply and deposit steps, heat and cost model) with
the production code; the incremental bookkeeping and the cost-first
candidate admission have no counterpart here.

Test-only: the property tests in ``test_sorp_incremental.py`` compare the
two paths on schedules, ``ResolutionStats`` and the ``sorp-placed``
journal sequence, and ``test_candidate_admission.py`` compares the two
greedies.
"""

from __future__ import annotations

import math

from repro.core.heat import HeatMetric, compute_heat
from repro.core.individual import IndividualScheduler
from repro.core.overflow import detect_overflows
from repro.core.rejective import fits_under
from repro.core.sorp import ResolutionStats, VictimRecord, _key_greater
from repro.core.spacefunc import UsageTimeline, capacity_slack, residency_profile
from repro.errors import OverflowResolutionError, RoutingError, ScheduleError
from repro.obs import NULL_OBS


class EagerIndividualScheduler(IndividualScheduler):
    """The greedy that asks ``allows`` of every cache candidate, in
    residency order, before routing and pricing it; the pick is the first
    minimum key over the warehouses, then the allowed caches, returned
    with the cheapest warehouse."""

    def _best_candidate(self, video, req, residencies):
        best = None
        if req.local_storage not in self._cm.topology:
            raise RoutingError(f"unknown destination node {req.local_storage!r}")
        volume = video.network_volume * self._cm.network_multiplier(
            req.start_time
        )
        t0, t1 = req.start_time, req.start_time + video.playback
        homes, _, _ = self._video_facts(video.video_id)
        for w in homes:
            route = self._route_policy.routes(
                req.local_storage, t0, t1, video.bandwidth
            ).get(w)
            if route is None:
                continue
            network = volume * route.rate
            cand = ((network, route.hops, 1, w), -1, route, network)
            if best is None or cand[0] < best[0]:
                best = cand
        home = best
        start = req.start_time
        constraints = self._constraints
        for idx, c in enumerate(residencies):
            if c.t_start > start:
                continue
            # a cache already held past the start (a seed) serves at a zero
            # Ψ_C extension
            t_last = max(start, c.t_last)
            if constraints is not None and not constraints.allows(
                video, c.location, c.t_start, t_last, replacing=c
            ):
                continue
            route = self._route_policy.routes(
                req.local_storage, t0, t1, video.bandwidth
            ).get(c.location)
            if route is None:
                continue
            ext_cost = self._cm.residency_cost_for(
                video.video_id, c.location, c.t_start, t_last
            ) - self._cm.residency_cost_for(
                video.video_id, c.location, c.t_start, c.t_last
            )
            network = volume * route.rate
            cand = ((network + ext_cost, route.hops, 0, c.location), idx, route,
                    network)
            if best is None or cand[0] < best[0]:
                best = cand
        if best is None:
            raise ScheduleError(f"no feasible source for request {req}")
        if not math.isfinite(best[0][0]):
            raise ScheduleError(f"non-finite candidate cost for request {req}")
        return best, home


class ReferenceOracle:
    """Per-trial "space used by everyone else" view, built lazily."""

    def __init__(self, schedule, catalog, topology, exclude_video, background=None):
        self._schedule = schedule
        self._catalog = catalog
        self._topo = topology
        self._exclude = exclude_video
        self._background = background or {}
        self._timelines = {}

    def timeline(self, location):
        tl = self._timelines.get(location)
        if tl is None:
            profiles = [
                c.profile(self._catalog[c.video_id])
                for c in self._schedule.residencies_at(location)
                if c.video_id != self._exclude
            ]
            profiles.extend(self._background.get(location, ()))
            tl = UsageTimeline(profiles)
            self._timelines[location] = tl
        return tl

    def fits(self, location, profile):
        capacity = self._topo.capacity(location)
        if profile.peak > capacity_slack(capacity):
            return False
        return fits_under(self.timeline(location), profile, capacity)


class ReferenceConstraints:
    """Forbidden windows plus the reference oracle's capacity check."""

    def __init__(self, forbidden, oracle):
        self.forbidden = list(forbidden)
        self.oracle = oracle

    def allows(self, video, location, t_start, t_last, *, replacing=None):
        del replacing
        profile = residency_profile(video.size, video.playback, t_start, t_last)
        if not profile.segments:
            return True
        for loc, (t0, t1) in self.forbidden:
            if loc == location and profile.positive_in(t0, t1):
                return False
        return self.oracle.fits(location, profile)


def reference_reschedule(
    cost_model, video, requests, schedule, *, forbidden, background, seeds,
    route_policy=None,
):
    oracle = ReferenceOracle(
        schedule, cost_model.catalog, cost_model.topology, video.video_id,
        background,
    )
    greedy = EagerIndividualScheduler(
        cost_model, ReferenceConstraints(forbidden, oracle), route_policy
    )
    return greedy.schedule_file(video, requests, initial_residencies=seeds)


def reference_select_victim(
    overflows, working, cost_model, requests_by_video, metric, background,
    committed, route_policy=None,
):
    catalog = cost_model.catalog
    best_key = None
    best = None
    old_costs = {}
    for of in overflows:
        for c in of.members:
            video = catalog[c.video_id]
            requests = requests_by_video.get(c.video_id)
            if not requests:
                continue
            seeds = committed.get(c.video_id, ())
            if any(
                s.location == c.location
                and s.t_start == c.t_start
                and s.t_last >= c.t_last
                for s in seeds
            ):
                continue
            try:
                new_fs = reference_reschedule(
                    cost_model, video, requests, working,
                    forbidden=[(of.location, of.interval)],
                    background=background, seeds=tuple(seeds),
                    route_policy=route_policy,
                )
            except ScheduleError:
                continue  # no feasible source under the route policy
            old_cost = old_costs.get(c.video_id)
            if old_cost is None:
                old_cost = cost_model.file_cost(working.file(c.video_id)).total
                old_costs[c.video_id] = old_cost
            overhead = cost_model.file_cost(new_fs).total - old_cost
            heat = compute_heat(metric, c, video, of, overhead)
            if math.isnan(heat):
                continue
            key = (heat, -overhead, c.video_id)
            if best_key is None or _key_greater(key, best_key):
                best_key = key
                best = (heat, overhead, of, new_fs)
    return best


def reference_resolve_overflows(
    schedule,
    batch,
    cost_model,
    *,
    metric=HeatMetric.SPACE_TIME_PER_COST,
    background=None,
    committed=None,
    obs=None,
    route_policy=None,
):
    """``SORP_solve`` with from-scratch trials; mirrors ``resolve_overflows``."""
    obs = obs if obs is not None else NULL_OBS
    catalog, topology = cost_model.catalog, cost_model.topology
    working = schedule.copy()
    stats = ResolutionStats(phase1_cost=cost_model.total(working))
    cap = 10 * max(len(working.residencies), 1) + 100
    requests_by_video = batch.by_video()
    committed = committed or {}
    overflows = detect_overflows(working, catalog, topology, background=background)
    stats.initial_overflows = len(overflows)
    while overflows:
        stats.iterations += 1
        if stats.iterations > cap:
            raise OverflowResolutionError("reference SORP hit its iteration cap")
        victim = reference_select_victim(
            overflows, working, cost_model, requests_by_video, metric,
            background, committed, route_policy,
        )
        if victim is None:
            raise OverflowResolutionError("no reschedulable member")
        heat, overhead, overflow, new_fs = victim
        working.set_file(new_fs)
        stats.victims.append(
            VictimRecord(
                video_id=new_fs.video_id,
                location=overflow.location,
                interval=overflow.interval,
                heat=heat,
                overhead_cost=overhead,
            )
        )
        obs.journal.emit(
            "sorp-placed",
            video_id=new_fs.video_id,
            location=overflow.location,
            interval=overflow.interval,
            heat=heat,
            overhead=overhead,
        )
        overflows = detect_overflows(
            working, catalog, topology, background=background
        )
    stats.resolved = cost_model.schedule_cost(working)
    return working, stats
