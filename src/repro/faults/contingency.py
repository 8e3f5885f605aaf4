"""Contingency re-scheduling: patch a schedule around an active fault plan.

Given a solved cycle and a :class:`~repro.faults.plan.FaultPlan`, the
:class:`ContingencyScheduler`

1. computes the **impacted video set** -- every file with a delivery that
   routes through a failed node/link or a residency at a failed or shrunk
   storage, while the fault is in effect (``_split_hits`` over
   :func:`~repro.faults.inject.fault_hits`);
2. splits the hit requests into **lost** (the user's local storage is down
   or unreachable from every standing *home* of the video -- every
   warehouse without a :class:`~repro.replication.ReplicaMap` -- on the
   mask of the faults in effect during the request's own stream) and
   **recoverable**;
3. re-solves *only* the recoverable requests with one
   :func:`~repro.core.scheduler.solve_two_phase` call on the healthy model,
   grafted onto the kept files (the pipeline's ``base``) before the SORP
   pass;
4. reports the patched schedule with its cost delta (Ψ before vs after,
   both on the *healthy* model) and the SLA outcome (requests saved vs
   lost).

Unimpacted files are untouched bit-for-bit, and the same seeded plan always
yields the same patched schedule.  Every patch is judged one way: on the
healthy model plus the plan's degraded replay.

Recovery is time-aware: a delivery or residency is hit only when its own
interval meets a fault window, and everything else is kept verbatim.  The
re-solve is seeded with the kept caches; the fault windows reach it as
SORP background (:func:`~repro.faults.inject.fault_background`: at each
instant a storage loses the share its tightest outage or shrink takes) and
as a route policy that routes each stream on its window's mask.  Its lost
set is therefore a subset of what holding every fault for the whole cycle
would lose: a request unreachable on its stream's mask is unreachable on
the whole plan's mask too.

A plan that downs *every* warehouse loses the impacted requests it cuts off
but still returns, with the unimpacted files intact.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping
from dataclasses import dataclass, field

from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.heat import HeatMetric
from repro.core.individual import RoutePolicy
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.core.scheduler import solve_two_phase
from repro.core.sorp import ResolutionStats
from repro.errors import RoutingError
from repro.faults.inject import (
    fault_background,
    fault_effects,
    fault_hits,
    fill_hits,
    masked_graph,
)
from repro.faults.plan import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.topology.routing import Route, Router
from repro.workload.requests import Request, RequestBatch

_log = logging.getLogger(__name__)


def _split_hits(
    fs: FileSchedule,
    playback: float,
    per_fault: list,
) -> tuple[list[DeliveryInfo], list[DeliveryInfo], list[ResidencyInfo]]:
    """Split one file's schedule into fault-hit and untouched parts.

    ``per_fault`` holds :func:`~repro.faults.inject.fault_effects` pairs,
    one per fault over its own window.  Returns ``(hit_deliveries,
    kept_deliveries, kept_residencies)``.  A delivery is hit when a fault in
    effect during its stream ``[start, start + playback)`` downs a node or
    link of its route; a residency when one in effect during its occupancy
    ``[t_start, t_last + playback)`` downs or shrinks its storage, or one
    in effect during its fill ``[t_start, t_start + playback)`` downs its
    source or a node or link of its depositing stream's route up to it
    (:func:`~repro.faults.inject.fill_hits`: a cache cannot fill from a
    lost warehouse or over a lost link).  Hits propagate
    through fill chains (a cache filled from a hit location must refill
    too) and onto every delivery sourced from a hit location --
    conservative over-marking only grows the re-solve set, never breaks
    the kept part's causality.
    """
    res = list(fs.residencies)
    hit = [
        bool(
            fault_hits(
                per_fault, c.t_start, c.t_last + playback,
                storage=c.location, shrink=True,
            )
            or fill_hits(per_fault, c, playback, fs.deliveries)
        )
        for c in res
    ]
    changed = True
    while changed:
        changed = False
        hit_locs = {c.location for c, h in zip(res, hit) if h}
        for i, c in enumerate(res):
            if not hit[i] and c.source in hit_locs:
                hit[i] = True
                changed = True
    hit_locs = {c.location for c, h in zip(res, hit) if h}
    hit_del: list[DeliveryInfo] = []
    kept_del: list[DeliveryInfo] = []
    for d in fs.deliveries:
        broken = d.source in hit_locs or bool(
            fault_hits(
                per_fault, d.start_time, d.start_time + playback, route=d.route
            )
        )
        (hit_del if broken else kept_del).append(d)
    kept_res = [c for c, h in zip(res, hit) if not h]
    return hit_del, kept_del, kept_res


class _MaskViews(RoutePolicy):
    """Routers over each sub-plan's :func:`~repro.faults.inject.masked_graph`,
    cached per sub-plan and per time window; one that downs every warehouse
    still routes between the surviving storages.  As a route policy its
    :meth:`routes` table for a stream is the ``routes_to`` table of the
    faults in effect during it (``{}`` when they down the destination): a
    source they down or cut off is left out, never given the healthy route,
    which could serve from a lost warehouse."""

    def __init__(self, cost_model: CostModel, plan: FaultPlan):
        self._cm = cost_model
        self._plan = plan
        self._routers: dict[tuple, Router] = {}
        self._windows: dict[tuple[float, float], Router] = {}

    def window(self, t0: float, t1: float) -> Router:
        """The router of the faults in effect during ``[t0, t1)``."""
        router = self._windows.get((t0, t1))
        if router is None:
            sub = self._plan.overlapping(t0, t1)
            sig = tuple(f.key for f in sub)
            router = self._routers.get(sig)
            if router is None:
                masked = masked_graph(self._cm.topology, sub)
                router = self._routers[sig] = Router(masked)
            self._windows[t0, t1] = router
        return router

    def servable(self, r: Request, playback: float) -> bool:
        """Whether a home of ``r``'s video
        (:meth:`~repro.core.costmodel.CostModel.homes`) standing during its
        stream reaches its neighborhood."""
        t0 = r.start_time
        table = self.routes(r.local_storage, t0, t0 + playback, 0.0)
        return any(h in table for h in self._cm.homes(r.video_id))

    def routes(
        self, dst: str, t_start: float, t_end: float, bandwidth: float
    ) -> Mapping[str, Route]:
        del bandwidth
        try:
            return self.window(t_start, t_end).routes_to(dst)
        except RoutingError:
            return {}  # the window's faults down dst


@dataclass
class RecoveryResult:
    """Outcome of one contingency re-scheduling pass."""

    plan: FaultPlan
    #: The amended schedule: unimpacted files verbatim, impacted files
    #: re-solved around the faults (files whose every request is lost
    #: disappear entirely).
    schedule: Schedule
    impacted: tuple[str, ...] = ()
    #: Requests of impacted files that the patched schedule still serves.
    saved: tuple[Request, ...] = ()
    #: Requests no surviving topology can serve (local storage down or
    #: unreachable from every standing warehouse).
    lost: tuple[Request, ...] = ()
    #: Ψ of the original / patched schedule, both on the original pricing.
    cost_before: CostBreakdown = field(default_factory=lambda: CostBreakdown(0, 0))
    cost_after: CostBreakdown = field(default_factory=lambda: CostBreakdown(0, 0))
    #: Phase-2 statistics of the recovery solve (None when nothing was
    #: impacted and the schedule is returned unchanged).
    resolution: ResolutionStats | None = None

    @property
    def videos_resolved(self) -> int:
        return len(self.impacted)

    @property
    def requests_saved(self) -> int:
        return len(self.saved)

    @property
    def requests_lost(self) -> int:
        return len(self.lost)

    @property
    def cost_delta(self) -> float:
        """Ψ(patched) - Ψ(original): the price paid to route around faults.

        Negative deltas are possible: lost requests take their deliveries
        (and cost) out of the schedule entirely.
        """
        return self.cost_after.total - self.cost_before.total

    def sla_summary(self) -> str:
        total = self.requests_saved + self.requests_lost
        lines = [
            f"recovery: {self.videos_resolved} video(s) re-solved under "
            f"{len(self.plan)} fault(s)",
            f"  requests saved: {self.requests_saved}/{total}, "
            f"lost: {self.requests_lost}/{total}",
            f"  psi before: ${self.cost_before.total:.2f}, "
            f"after: ${self.cost_after.total:.2f} "
            f"(delta {self.cost_delta:+.2f})",
        ]
        return "\n".join(lines)

    def to_json_dict(self) -> dict:
        return {
            "plan": self.plan.to_dict(),
            "impacted_videos": list(self.impacted),
            "requests_saved": self.requests_saved,
            "requests_lost": self.requests_lost,
            "lost": [
                {
                    "user_id": r.user_id,
                    "video_id": r.video_id,
                    "start_time": r.start_time,
                    "local_storage": r.local_storage,
                }
                for r in self.lost
            ],
            "psi_before_dollars": self.cost_before.total,
            "psi_after_dollars": self.cost_after.total,
            "psi_delta_dollars": self.cost_delta,
            "overflow_iterations": (
                0 if self.resolution is None else self.resolution.iterations
            ),
        }


class ContingencyScheduler:
    """Incremental re-scheduler for fault recovery.

    Args:
        cost_model: The *healthy* pricing model the original schedule was
            solved under; supplies topology + catalog and prices the
            before/after Ψ comparison.
        heat_metric: Victim-selection metric for the recovery SORP pass.
        obs: Observability handle; a live handle records a ``recover`` span
            plus ``vor_recovery_*`` metrics.
    """

    def __init__(
        self,
        cost_model: CostModel,
        *,
        heat_metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
        obs: Observability | None = None,
    ):
        self._cm = cost_model
        self._metric = heat_metric
        self._obs = obs if obs is not None else NULL_OBS

    def recover(self, solved, plan: FaultPlan) -> RecoveryResult:
        """Patch ``solved.schedule`` around ``plan``; the input is not mutated.

        Args:
            solved: The solved cycle to amend: a
                :class:`~repro.core.scheduler.ScheduleResult` or a rolling
                :class:`~repro.extensions.rolling.CycleResult`.  Its
                ``cost``, Ψ of its schedule on the healthy model, is the
                recovery's ``cost_before``.
            plan: The active fault scenario.

        A plan that downs every warehouse does not raise: every hit request
        it cuts off is reported lost and the unimpacted files survive
        verbatim.
        """
        per_fault = fault_effects(self._cm.topology, plan)
        with self._obs.tracer.span(
            "recover",
            faults=len(plan),
            requests=len(solved.schedule.deliveries),
        ) as span:
            result = self._recover(solved, plan, per_fault)
            span.set(
                impacted=result.videos_resolved,
                saved=result.requests_saved,
                lost=result.requests_lost,
            )
        journal = self._obs.journal
        if journal.enabled:
            for request in result.saved:
                journal.emit("fault-hit", request=request, faults=len(plan))
                journal.emit("saved", request=request)
            for request in result.lost:
                journal.emit("fault-hit", request=request, faults=len(plan))
                journal.emit("lost", request=request)
        self._record_metrics(result)
        _log.info(
            "contingency: %d impacted video(s), %d saved / %d lost, "
            "psi delta %+.2f",
            result.videos_resolved,
            result.requests_saved,
            result.requests_lost,
            result.cost_delta,
        )
        return result

    def _recover(
        self,
        solved,
        plan: FaultPlan,
        per_fault: list,
    ) -> RecoveryResult:
        schedule, cost_before = solved.schedule, solved.cost
        catalog = self._cm.catalog
        # video id -> _split_hits of each file a fault hits, in file order
        splits = {}
        for fs in schedule:
            split = _split_hits(fs, catalog[fs.video_id].playback, per_fault)
            hit_del, _, kept_res = split
            if hit_del or len(kept_res) < len(fs.residencies):
                splits[fs.video_id] = split
        if not splits:
            return RecoveryResult(
                plan=plan,
                schedule=schedule.copy(),
                cost_before=cost_before,
                cost_after=cost_before,
            )
        masks = _MaskViews(self._cm, plan)
        base = Schedule(fs for fs in schedule if fs.video_id not in splits)
        saved: list[Request] = []
        lost: list[Request] = []
        # Hit requests servable on the mask of the faults in effect during
        # their own stream are re-solved; the rest of each file is kept.
        resolve: list[Request] = []
        for video_id, (hit_del, kept_del, kept_res) in splits.items():
            playback = catalog[video_id].playback
            redo: list[Request] = []
            for d in hit_del:
                r = d.request
                (redo if masks.servable(r, playback) else lost).append(r)
            saved.extend(d.request for d in kept_del)
            saved.extend(redo)
            resolve.extend(redo)
            if kept_del:
                kept = [] if redo else list(kept_res)
                base.set_file(FileSchedule(video_id, kept_del, kept).pruned())
        if resolve:
            # The healthy model, seeded with the kept caches; the fault
            # windows reach it as SORP background and route policy.
            fresh = solve_two_phase(
                RequestBatch(resolve),
                self._cm,
                heat_metric=self._metric,
                obs=self._obs,
                seeds={v: tuple(k) for v, (_, _, k) in splits.items() if k},
                background=fault_background(self._cm.topology, plan),
                base=base,
                route_policy=masks,
            )
            patched, cost_after = fresh.schedule, fresh.cost
            resolution = fresh.resolution
        else:
            patched, cost_after = base, self._cm.schedule_cost(base)
            resolution = None
        return RecoveryResult(
            plan=plan,
            schedule=patched,
            impacted=tuple(splits),
            saved=tuple(saved),
            lost=tuple(lost),
            cost_before=cost_before,
            cost_after=cost_after,
            resolution=resolution,
        )

    def _record_metrics(self, result: RecoveryResult) -> None:
        metrics = self._obs.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "vor_recovery_videos_resolved_total",
            help="Videos incrementally re-solved by contingency scheduling",
        ).inc(result.videos_resolved)
        for outcome, count in (
            ("saved", result.requests_saved),
            ("lost", result.requests_lost),
        ):
            metrics.counter(
                "vor_recovery_requests_total",
                help="Impacted requests by recovery outcome",
                outcome=outcome,
            ).inc(count)
        metrics.gauge(
            "vor_recovery_cost_delta_dollars",
            mode="last",
            help="Ψ(patched) - Ψ(original) of the last contingency pass",
        ).set(result.cost_delta)


__all__ = [
    "ContingencyScheduler",
    "RecoveryResult",
]
