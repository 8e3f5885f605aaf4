"""Reference SORP victim selection: every trial rebuilt from scratch.

This is the straightforward evaluation of ``SORP_solve`` (paper Table 3)
that :func:`repro.core.sorp.resolve_overflows` must reproduce bit for bit:
each round prices every (overflow, member) reschedule with a fresh
availability oracle whose per-location timelines are rebuilt from the
working schedule, and every detection sweep covers every storage.  Its
greedy is the record-based :class:`~tests.core.greedy_reference.ReferenceGreedy`
in its eager form, which asks the constraints about every cache candidate
in residency order before pricing it.  It shares only the leaf primitives
(``fits_under``, ``detect_overflows`` without an index, heat and cost
model) with the production code; the incremental bookkeeping, the plain
greedy state and the cost-first candidate admission have no counterpart
here.

Test-only: the property tests in ``test_sorp_incremental.py`` compare the
two paths on schedules, ``ResolutionStats`` and the ``sorp-placed``
journal sequence.
"""

from __future__ import annotations

import math

from repro.core.heat import HeatMetric, compute_heat
from repro.core.overflow import detect_overflows
from repro.core.rejective import fits_under
from repro.core.sorp import ResolutionStats, VictimRecord, _key_greater
from repro.core.spacefunc import UsageTimeline, capacity_slack, residency_profile
from repro.errors import OverflowResolutionError, ScheduleError
from repro.obs import NULL_OBS

from .greedy_reference import ReferenceGreedy


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
    greedy = ReferenceGreedy(
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
