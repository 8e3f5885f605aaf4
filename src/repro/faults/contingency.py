"""Contingency re-scheduling: patch a schedule around an active fault plan.

Given a committed schedule and a :class:`~repro.faults.plan.FaultPlan`, the
:class:`ContingencyScheduler`

1. computes the **impacted video set** -- every file whose deliveries route
   through a failed node/link or whose residencies sit at a failed or
   shrunk storage;
2. builds a **masked** topology/cost model (failed resources removed,
   degraded ones shrunk, see :func:`repro.faults.inject.masked_topology`);
3. splits the impacted files' requests into **lost** (the user's local
   storage is down or unreachable from every surviving *home* of the
   video's replica set -- no schedule can serve them) and **recoverable**;
   without a :class:`~repro.replication.ReplicaMap` on the cost model every
   surviving warehouse counts as a home, the single-warehouse behaviour;
4. re-solves *only* the recoverable impacted requests through the existing
   Phase-1 + SORP machinery against the masked model, grafting the
   fresh per-file schedules over the old ones;
5. reports the patched schedule together with its cost delta (Ψ before vs
   after, both priced on the *original* model so the delta is
   apples-to-apples) and the SLA outcome (requests saved vs lost).

Unimpacted files are untouched bit-for-bit: recovery is incremental and
deterministic -- the same seeded plan always yields the same patched
schedule.

Two masking stances are supported (``masking=``).  The default ``"cycle"``
mode is conservative: any resource the plan *ever* fails is treated as
unusable for the whole cycle, and every request of an impacted video is
re-solved (or lost) on the union mask.  ``"windowed"`` mode is time-aware
and surgical: only services whose stream or occupancy interval actually
intersects a fault window count as hit (:func:`windowed_impacted_videos`
at the video level, per-delivery/per-residency inside the recovery), so a
delivery scheduled around an outage keeps its original route verbatim and
only the genuinely-hit requests are re-solved -- against the conservative
union mask (seeded with the kept caches), so anything rebuilt avoids every
faulted resource outright and the patched schedule stays feasible under
every fault window.  Because windowed recovery loses a request only when a
*hit* request is unservable on the same union mask, its lost set is always
a subset of cycle mode's: windowed recovery saves at least as many
requests, and strictly more whenever a fault window leaves part of the
cycle untouched.  The windowed overflow pass (Phase 2) runs on the healthy
model -- window-shrunk capacity violations are surfaced by the degraded
replay at validation time rather than repaired.

A :attr:`~repro.faults.plan.FaultKind.WAREHOUSE_LOSS` removes a warehouse
node entirely; with replicated warehouses recovery re-solves every impacted
request from the surviving homes.  When the plan downs *every* warehouse the
impacted requests are all lost but recovery still returns gracefully with
the unimpacted files intact (only :func:`~repro.faults.inject.masked_topology`
itself insists on a standing warehouse).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.heat import HeatMetric
from repro.core.parallel import ParallelIndividualScheduler
from repro.core.schedule import DeliveryInfo, FileSchedule, ResidencyInfo, Schedule
from repro.core.sorp import ResolutionStats, resolve_overflows
from repro.errors import FaultError
from repro.faults.inject import (
    ResourceEffects,
    combined_effects,
    effects_of,
    masked_topology,
)
from repro.faults.plan import FaultPlan
from repro.obs import NULL_OBS, Observability
from repro.topology.graph import Topology, edge_key
from repro.topology.routing import Router
from repro.workload.requests import Request, RequestBatch

_log = logging.getLogger(__name__)

#: Recognized masking modes for contingency recovery.
MASKING_MODES = ("cycle", "windowed")


def impacted_videos(schedule: Schedule, effects: ResourceEffects) -> tuple[str, ...]:
    """Video ids whose schedules touch a failed or shrunk resource.

    A file is impacted when any of its deliveries routes through a down
    node or down link, or any of its residencies sits at a down node or a
    capacity-shrunk storage.  Order follows the schedule's file order, so
    the result is deterministic for a given schedule.
    """
    shrunk = set(effects.capacity_factor_map)
    out: dict[str, None] = {}
    for fs in schedule:
        hit = False
        for d in fs.deliveries:
            if any(n in effects.down_nodes for n in d.route) or any(
                edge_key(a, b) in effects.down_edges
                for a, b in zip(d.route, d.route[1:])
            ):
                hit = True
                break
        if not hit:
            hit = any(
                c.location in effects.down_nodes or c.location in shrunk
                for c in fs.residencies
            )
        if hit:
            out.setdefault(fs.video_id)
    return tuple(out)


def windowed_impacted_videos(
    schedule: Schedule,
    catalog: VideoCatalog,
    topology: Topology,
    plan: FaultPlan,
) -> tuple[str, ...]:
    """Video ids whose schedules touch a faulted resource *during* a fault.

    The time-aware counterpart of :func:`impacted_videos`: a delivery is hit
    only when a fault is active somewhere in its stream interval ``[start,
    start + playback)`` and its route crosses the failed resource; a
    residency only when the fault window intersects its occupancy ``[t_start,
    t_last + playback)`` at a down or shrunk storage.  Services that merely
    *share a resource* with a fault at a disjoint time survive untouched --
    which is exactly why windowed recovery saves more requests than the
    conservative whole-cycle mask.
    """
    per_fault = [(f, effects_of(topology, f)) for f in plan]
    out: dict[str, None] = {}
    for fs in schedule:
        playback = catalog[fs.video_id].playback
        hit = False
        for d in fs.deliveries:
            t0, t1 = d.start_time, d.start_time + playback
            for fault, eff in per_fault:
                if not fault.overlaps(t0, t1):
                    continue
                if any(n in eff.down_nodes for n in d.route) or any(
                    edge_key(a, b) in eff.down_edges
                    for a, b in zip(d.route, d.route[1:])
                ):
                    hit = True
                    break
            if hit:
                break
        if not hit:
            for c in fs.residencies:
                occ0, occ1 = c.t_start, c.t_last + playback
                shrunk = False
                for fault, eff in per_fault:
                    if not fault.overlaps(occ0, occ1):
                        continue
                    if c.location in eff.down_nodes or any(
                        loc == c.location for loc, _ in eff.capacity_factors
                    ):
                        shrunk = True
                        break
                if shrunk:
                    hit = True
                    break
        if hit:
            out.setdefault(fs.video_id)
    return tuple(out)


def _split_hits(
    fs: FileSchedule,
    playback: float,
    per_fault: list,
) -> tuple[list[DeliveryInfo], list[DeliveryInfo], list[ResidencyInfo]]:
    """Split one file's schedule into fault-hit and untouched parts.

    Returns ``(hit_deliveries, kept_deliveries, kept_residencies)``.  A
    residency is hit when a fault window intersects its occupancy at a
    down or shrunk storage; hits propagate through fill chains (a cache
    filled from a hit location must refill too) and onto every delivery
    sourced from a hit location -- conservative over-marking only grows
    the re-solve set, never breaks the kept part's causality.
    """
    res = list(fs.residencies)
    hit = [False] * len(res)
    for i, c in enumerate(res):
        occ0, occ1 = c.t_start, c.t_last + playback
        for fault, eff in per_fault:
            if not fault.overlaps(occ0, occ1):
                continue
            if c.location in eff.down_nodes or any(
                loc == c.location for loc, _ in eff.capacity_factors
            ):
                hit[i] = True
                break
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
        t0, t1 = d.start_time, d.start_time + playback
        broken = d.source in hit_locs
        if not broken:
            for fault, eff in per_fault:
                if not fault.overlaps(t0, t1):
                    continue
                if any(n in eff.down_nodes for n in d.route) or any(
                    edge_key(a, b) in eff.down_edges
                    for a, b in zip(d.route, d.route[1:])
                ):
                    broken = True
                    break
        (hit_del if broken else kept_del).append(d)
    kept_res = [c for c, h in zip(res, hit) if not h]
    return hit_del, kept_del, kept_res


@dataclass
class RecoveryResult:
    """Outcome of one contingency re-scheduling pass."""

    plan: FaultPlan
    #: The amended schedule: unimpacted files verbatim, impacted files
    #: re-solved on the masked model (files whose every request is lost
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
    #: Which masking stance produced this recovery: ``"cycle"`` (any
    #: resource the plan ever fails is avoided for the whole cycle) or
    #: ``"windowed"`` (only services actually intersecting a fault window
    #: were re-solved).
    masking: str = "cycle"

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
            "masking": self.masking,
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
        masking: ``"cycle"`` (default) treats any resource the plan ever
            fails as unusable for the whole cycle -- the conservative
            stance.  ``"windowed"`` re-solves only the services whose time
            interval actually intersects a fault window, so deliveries at
            disjoint times keep their original (cheaper) routes and
            strictly fewer requests are lost.
    """

    def __init__(
        self,
        cost_model: CostModel,
        *,
        heat_metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
        obs: Observability | None = None,
        masking: str = "cycle",
    ):
        if masking not in MASKING_MODES:
            raise FaultError(
                f"unknown masking mode {masking!r} (expected one of "
                f"{MASKING_MODES})"
            )
        self._cm = cost_model
        self._metric = heat_metric
        self._obs = obs if obs is not None else NULL_OBS
        self._masking = masking

    def recover(
        self,
        schedule: Schedule,
        plan: FaultPlan,
        *,
        batch: RequestBatch | None = None,
    ) -> RecoveryResult:
        """Patch ``schedule`` around ``plan``; the input is not mutated.

        Args:
            schedule: The committed schedule to amend.
            plan: The active fault scenario.
            batch: The cycle's request batch; when omitted it is
                reconstructed from the schedule's own deliveries.

        A plan that downs every warehouse does not raise: every impacted
        request is reported lost and the unimpacted files survive verbatim.
        """
        topology = self._cm.topology
        effects = combined_effects(topology, plan)
        if batch is None:
            batch = RequestBatch(d.request for d in schedule.deliveries)
        with self._obs.tracer.span(
            "recover",
            faults=len(plan),
            requests=len(batch),
            masking=self._masking,
        ) as span:
            result = self._recover(schedule, plan, effects, batch, topology)
            span.set(
                impacted=result.videos_resolved,
                saved=result.requests_saved,
                lost=result.requests_lost,
            )
        journal = self._obs.journal
        if journal.enabled:
            for request in result.saved:
                journal.emit(
                    "fault-hit", request=request,
                    faults=len(plan), masking=self._masking,
                )
                journal.emit("saved", request=request)
            for request in result.lost:
                journal.emit(
                    "fault-hit", request=request,
                    faults=len(plan), masking=self._masking,
                )
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
        schedule: Schedule,
        plan: FaultPlan,
        effects: ResourceEffects,
        batch: RequestBatch,
        topology: Topology,
    ) -> RecoveryResult:
        cost_before = self._cm.schedule_cost(schedule)
        if self._masking == "windowed":
            return self._recover_windowed(
                schedule, plan, effects, batch, topology, cost_before
            )
        impacted = impacted_videos(schedule, effects)
        if not impacted:
            return RecoveryResult(
                plan=plan,
                schedule=schedule.copy(),
                cost_before=cost_before,
                cost_after=cost_before,
                masking=self._masking,
            )

        impacted_set = set(impacted)
        replicas = self._cm.replicas
        if all(
            w.name in effects.down_nodes for w in topology.warehouses
        ):
            # Total warehouse loss: no copy of anything survives, so every
            # impacted request is lost.  Unimpacted files keep serving from
            # their already-filled caches verbatim.
            patched = Schedule(
                fs for fs in schedule if fs.video_id not in impacted_set
            )
            return RecoveryResult(
                plan=plan,
                schedule=patched,
                impacted=impacted,
                saved=(),
                lost=tuple(r for r in batch if r.video_id in impacted_set),
                cost_before=cost_before,
                cost_after=self._cm.schedule_cost(patched),
                resolution=None,
                masking=self._masking,
            )

        masked = masked_topology(topology, plan)
        masked_cm = CostModel(
            masked,
            self._cm.catalog,
            replicas=(
                replicas.restricted_to(masked.node_names)
                if replicas is not None
                else None
            ),
        )
        router = Router(masked)
        # reachable set of each surviving warehouse: a request is servable
        # iff its neighborhood is reachable from a surviving *home* of its
        # video (all warehouses count as homes without a replica map)
        reach = {w.name: router.reachable(w.name) for w in masked.warehouses}

        def servable(r: Request) -> bool:
            homes = (
                replicas.homes(r.video_id)
                if replicas is not None
                else tuple(reach)
            )
            return any(
                r.local_storage in reach[h] for h in homes if h in reach
            )

        saved: list[Request] = []
        lost: list[Request] = []
        surviving: list[Request] = []
        for r in batch:
            if r.video_id not in impacted_set:
                surviving.append(r)
                continue
            if servable(r):
                saved.append(r)
                surviving.append(r)
            else:
                lost.append(r)

        patched = Schedule(fs for fs in schedule if fs.video_id not in impacted_set)
        resolution: ResolutionStats | None = None
        if saved:
            sub_batch = RequestBatch(saved)
            engine = ParallelIndividualScheduler(masked_cm, obs=self._obs)
            phase1 = engine.run(sub_batch, self._cm.catalog)
            for fs in phase1.schedule:
                patched.set_file(fs)
            # SORP over the whole grafted schedule: the fresh files must fit
            # in what the shrunk storages have left *alongside* the
            # unimpacted files' residencies.
            patched, resolution = resolve_overflows(
                patched,
                RequestBatch(surviving),
                masked_cm,
                metric=self._metric,
                obs=self._obs,
            )
            patched = patched.pruned()

        return RecoveryResult(
            plan=plan,
            schedule=patched,
            impacted=impacted,
            saved=tuple(saved),
            lost=tuple(lost),
            cost_before=cost_before,
            cost_after=self._cm.schedule_cost(patched),
            resolution=resolution,
            masking=self._masking,
        )

    def _recover_windowed(
        self,
        schedule: Schedule,
        plan: FaultPlan,
        effects: ResourceEffects,
        batch: RequestBatch,
        topology: Topology,
        cost_before: CostBreakdown,
    ) -> RecoveryResult:
        """Time-aware surgical recovery (see the module docstring).

        Deliveries and residencies never touched *during* a fault window
        carry over verbatim; only the genuinely-hit requests are re-solved
        on the conservative union mask, seeded with the kept caches of
        their video so the rebuild pays just the incremental Eq. 2/3
        difference.
        """
        catalog = self._cm.catalog
        impacted = windowed_impacted_videos(schedule, catalog, topology, plan)
        if not impacted:
            return RecoveryResult(
                plan=plan,
                schedule=schedule.copy(),
                cost_before=cost_before,
                cost_after=cost_before,
                masking=self._masking,
            )
        impacted_set = set(impacted)
        per_fault = [(f, effects_of(topology, f)) for f in plan]
        replicas = self._cm.replicas

        if all(w.name in effects.down_nodes for w in topology.warehouses):
            # Total warehouse loss: hit services cannot refill from
            # anywhere, but services at disjoint times already streamed --
            # keep them, drop only what a fault actually touches.
            patched = Schedule(
                fs for fs in schedule if fs.video_id not in impacted_set
            )
            saved: list[Request] = []
            lost: list[Request] = []
            for video_id in impacted:
                fs = schedule.file(video_id)
                hit_del, kept_del, kept_res = _split_hits(
                    fs, catalog[video_id].playback, per_fault
                )
                lost.extend(d.request for d in hit_del)
                saved.extend(d.request for d in kept_del)
                if kept_del:
                    patched.set_file(
                        FileSchedule(
                            video_id, list(kept_del), list(kept_res)
                        ).pruned()
                    )
            return RecoveryResult(
                plan=plan,
                schedule=patched,
                impacted=impacted,
                saved=tuple(saved),
                lost=tuple(lost),
                cost_before=cost_before,
                cost_after=self._cm.schedule_cost(patched),
                resolution=None,
                masking=self._masking,
            )

        # Per-window reachability: a request is lost only when its
        # neighborhood is unreachable from every surviving home *during its
        # own service window* -- the union mask would also count outages at
        # disjoint times.  Masks are cached per sub-plan signature.
        mask_cache: dict[tuple, dict] = {}

        def window_view(sub: FaultPlan) -> dict:
            sig = tuple(f.key for f in sub)
            entry = mask_cache.get(sig)
            if entry is None:
                try:
                    m = masked_topology(topology, sub)
                except FaultError:
                    # No warehouse survives this window.
                    entry = {"topology": None, "reach": {}}
                else:
                    router = Router(m)
                    entry = {
                        "topology": m,
                        "reach": {
                            w.name: router.reachable(w.name)
                            for w in m.warehouses
                        },
                    }
                mask_cache[sig] = entry
            return entry

        def servable_in(r: Request, view: dict) -> bool:
            reach = view["reach"]
            homes = (
                replicas.homes(r.video_id)
                if replicas is not None
                else tuple(reach)
            )
            return any(
                r.local_storage in reach[h] for h in homes if h in reach
            )

        patched = Schedule(
            fs for fs in schedule if fs.video_id not in impacted_set
        )
        saved = []
        lost = []
        surviving = [r for r in batch if r.video_id not in impacted_set]
        kept: dict[str, tuple[list[DeliveryInfo], list[ResidencyInfo]]] = {}
        pending_resolve: dict[str, list[Request]] = {}
        for video_id in impacted:
            fs = schedule.file(video_id)
            playback = catalog[video_id].playback
            hit_del, kept_del, kept_res = _split_hits(fs, playback, per_fault)
            video_resolve: list[Request] = []
            for d in hit_del:
                r = d.request
                view = window_view(
                    plan.overlapping(r.start_time, r.start_time + playback)
                )
                if servable_in(r, view):
                    video_resolve.append(r)
                else:
                    lost.append(r)
            for d in kept_del:
                saved.append(d.request)
                surviving.append(d.request)
            kept[video_id] = (kept_del, kept_res)
            if video_resolve:
                pending_resolve[video_id] = video_resolve

        # Group the re-solves by the sub-plan active over each video's
        # resolve span: every group re-solves on a mask of exactly the
        # faults it can intersect, so a request after an outage may rebuild
        # on the very storage that was down earlier.  Requests that stop
        # being servable under their (wider) group mask demote to lost.
        groups: dict[tuple, dict] = {}
        for video_id in impacted:
            video_resolve = pending_resolve.get(video_id)
            if not video_resolve:
                continue
            playback = catalog[video_id].playback
            t0 = min(r.start_time for r in video_resolve)
            t1 = max(r.start_time for r in video_resolve) + playback
            sub = plan.overlapping(t0, t1)
            view = window_view(sub)
            kept_here: list[Request] = []
            for r in video_resolve:
                if servable_in(r, view):
                    kept_here.append(r)
                    saved.append(r)
                    surviving.append(r)
                else:
                    lost.append(r)
            if not kept_here:
                continue
            sig = tuple(f.key for f in sub)
            group = groups.setdefault(
                sig, {"view": view, "requests": [], "videos": []}
            )
            group["requests"].extend(kept_here)
            group["videos"].append(video_id)

        resolution: ResolutionStats | None = None
        solved: dict[str, FileSchedule] = {}
        seeds: dict[str, tuple[ResidencyInfo, ...]] = {}
        for sig in sorted(groups):
            group = groups[sig]
            g_topo = group["view"]["topology"]
            g_cm = CostModel(
                g_topo,
                catalog,
                replicas=(
                    replicas.restricted_to(g_topo.node_names)
                    if replicas is not None
                    else None
                ),
            )
            sub_batch = RequestBatch(group["requests"])
            firsts = {
                video_id: min(
                    r.start_time
                    for r in group["requests"]
                    if r.video_id == video_id
                )
                for video_id in group["videos"]
            }
            # Kept caches seed the re-solve, but the greedy only extends a
            # cache *forward* -- seed just those ending before the video's
            # first re-solved request and surviving the group mask.
            for video_id in group["videos"]:
                _, kept_res = kept[video_id]
                seeds[video_id] = tuple(
                    c
                    for c in kept_res
                    if c.location in g_topo
                    and c.t_last <= firsts[video_id]
                )
            engine = ParallelIndividualScheduler(g_cm, obs=self._obs)
            phase1 = engine.run(sub_batch, catalog, seeds=seeds)
            solved.update({fs.video_id: fs for fs in phase1.schedule})
        for video_id in impacted:
            kept_del, kept_res = kept[video_id]
            new_fs = solved.get(video_id)
            if new_fs is not None:
                deliveries = list(kept_del) + list(new_fs.deliveries)
                # The re-solve's residencies include the (possibly
                # extended) seeded caches; add back only the unseeded ones.
                seeded = {
                    (c.location, c.t_start) for c in seeds.get(video_id, ())
                }
                residencies = list(new_fs.residencies) + [
                    c
                    for c in kept_res
                    if (c.location, c.t_start) not in seeded
                ]
            else:
                deliveries = list(kept_del)
                residencies = list(kept_res)
            if deliveries:
                patched.set_file(
                    FileSchedule(video_id, deliveries, residencies).pruned()
                )
        if solved:
            # Phase 2 on the healthy model: the grafted files must fit
            # alongside everything kept.  Kept caches are committed --
            # victim rebuilds may extend but never shrink them.
            patched, resolution = resolve_overflows(
                patched,
                RequestBatch(surviving),
                self._cm,
                metric=self._metric,
                committed={
                    video_id: tuple(kept_res)
                    for video_id, (_, kept_res) in kept.items()
                    if kept_res
                },
                obs=self._obs,
            )
            patched = patched.pruned()

        return RecoveryResult(
            plan=plan,
            schedule=patched,
            impacted=impacted,
            saved=tuple(saved),
            lost=tuple(lost),
            cost_before=cost_before,
            cost_after=self._cm.schedule_cost(patched),
            resolution=resolution,
            masking=self._masking,
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
    "MASKING_MODES",
    "RecoveryResult",
    "impacted_videos",
    "windowed_impacted_videos",
]
