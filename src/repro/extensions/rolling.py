"""Rolling multi-cycle VOR operation.

The paper schedules one cycle in isolation ("the scheduler collects the
requests for the cycle").  A deployed VOR service schedules cycle after
cycle, and residencies committed near the end of cycle ``k`` still occupy
intermediate-storage space at the start of cycle ``k+1`` (their Eq. 6 drain
tails cross the boundary).  :class:`RollingScheduler` makes the paper's
algorithm operational across cycles:

* **carryover accounting** -- residency tails from previous cycles count
  against capacity (as SORP *background*) but can never be victimized: they
  back already-promised services;
* **cross-cycle cache reuse** -- when a carried-over title is requested
  again, the greedy is *seeded* with the committed residency and may extend
  it, paying only the Eq. 2/3 difference.  A victim rebuild reverts to (but
  never below) the committed interval.

Each call to :meth:`RollingScheduler.schedule_cycle` consumes one batch,
returns that cycle's feasible schedule + stats, and rolls the carryover
state forward.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.heat import HeatMetric
from repro.core.schedule import ResidencyInfo, Schedule
from repro.core.scheduler import (
    record_schedule_metrics,
    scheduling_model,
    solve_two_phase,
)
from repro.core.sorp import ResolutionStats
from repro.core.spacefunc import SpaceProfile
from repro.errors import ScheduleError
from repro.obs import NULL_OBS, Observability
from repro.topology.graph import Topology
from repro.workload.requests import RequestBatch

_log = logging.getLogger(__name__)


@dataclass
class CycleResult:
    """Outcome of scheduling one cycle in a rolling operation."""

    cycle_index: int
    schedule: Schedule
    cost: CostBreakdown
    resolution: ResolutionStats
    carried_in: int  # residencies inherited from previous cycles
    carried_out: int  # residencies handed to the next cycle
    reused_carryover: int  # inherited residencies extended by this cycle
    #: Storage cost of the committed carryover intervals embedded in this
    #: cycle's schedule.  Already paid by the previous cycle; subtract it to
    #: get this cycle's incremental spend.
    carryover_credit: float = 0.0
    #: The residencies inherited at cycle start.  Their feeder streams live
    #: in the previous cycle's schedule, so validators must trust them.
    inherited: tuple[ResidencyInfo, ...] = ()

    @property
    def total_cost(self) -> float:
        """Gross Ψ of this cycle's schedule (incl. inherited intervals)."""
        return self.cost.total

    @property
    def net_total_cost(self) -> float:
        """This cycle's incremental spend: gross minus the carryover credit."""
        return self.cost.total - self.carryover_credit


class RollingScheduler:
    """Cycle-after-cycle scheduler with carryover residency state."""

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        heat_metric: HeatMetric = HeatMetric.SPACE_TIME_PER_COST,
        cost_model: CostModel | None = None,
        obs: Observability | None = None,
        replicas=None,
    ):
        self.topology = topology
        self.catalog = catalog
        self.heat_metric = heat_metric
        self.cost_model = scheduling_model(
            topology, catalog, cost_model=cost_model, replicas=replicas
        )
        self.obs = obs if obs is not None else NULL_OBS
        #: committed residencies whose occupancy outlives their cycle
        self._carryover: dict[str, list[ResidencyInfo]] = {}
        self._cycle_index = 0
        self._last_boundary = float("-inf")

    @property
    def carryover(self) -> list[ResidencyInfo]:
        """Residencies currently carried into the next cycle."""
        return [c for cs in self._carryover.values() for c in cs]

    def schedule_cycle(
        self, batch: RequestBatch, *, cycle_end: float
    ) -> CycleResult:
        """Schedule one cycle's batch against the inherited carryover state.

        Args:
            batch: This cycle's requests (absolute start times).
            cycle_end: Absolute end of this cycle; residencies whose
                occupancy extends past it become the next cycle's carryover.
        """
        if batch and batch.span[0] < self._last_boundary:
            raise ScheduleError(
                f"cycle batches must move forward in time: request at "
                f"{batch.span[0]} precedes previous boundary "
                f"{self._last_boundary}"
            )
        if batch and batch.span[1] > cycle_end:
            raise ScheduleError(
                f"request at {batch.span[1]} lies beyond cycle_end={cycle_end}"
            )
        carried_in = sum(len(v) for v in self._carryover.values())
        inherited = tuple(
            c for cs in self._carryover.values() for c in cs
        )

        with self.obs.tracer.span(
            "cycle",
            index=self._cycle_index,
            requests=len(batch),
            carried_in=carried_in,
        ) as span:
            # Carryover seeding: requested carried-over titles may extend
            # their committed caches; the rest become capacity background.
            seeds: dict[str, tuple[ResidencyInfo, ...]] = {
                video_id: tuple(self._carryover.get(video_id, ()))
                for video_id in batch.video_ids
            }
            background: dict[str, list[SpaceProfile]] = {}
            for video_id, residencies in self._carryover.items():
                if video_id in seeds:
                    continue  # seeded into the greedy instead
                for c in residencies:
                    background.setdefault(c.location, []).append(
                        c.profile(self.catalog[c.video_id])
                    )
            solved = solve_two_phase(
                batch,
                self.cost_model,
                heat_metric=self.heat_metric,
                obs=self.obs,
                seeds=seeds,
                background=background,
            )
            final = solved.schedule

            reused = self._count_reused(final, seeds)
            credit = sum(
                self.cost_model.residency_cost(s)
                for seed in seeds.values()
                for s in seed
            )
            self._roll_state(final, cycle_end)
            self._last_boundary = cycle_end
            result = CycleResult(
                cycle_index=self._cycle_index,
                schedule=final,
                cost=solved.cost,
                resolution=solved.resolution,
                carried_in=carried_in,
                carried_out=sum(len(v) for v in self._carryover.values()),
                reused_carryover=reused,
                carryover_credit=credit,
                inherited=inherited,
            )
            span.set(carried_out=result.carried_out, reused=reused)
            self.obs.journal.emit(
                "cycle-closed",
                index=result.cycle_index,
                requests=len(batch),
                carried_in=carried_in,
                carried_out=result.carried_out,
                reused=reused,
                deliveries=len(final.deliveries),
                residencies=len(final.residencies),
            )
        record_schedule_metrics(self.obs, final, self.cost_model, scope="final")
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_cycles_total", help="Scheduling cycles closed"
            ).inc()
            metrics.counter(
                "vor_carryover_in_total",
                help="Residencies inherited from previous cycles",
            ).inc(carried_in)
            metrics.counter(
                "vor_carryover_out_total",
                help="Residencies handed to the next cycle",
            ).inc(result.carried_out)
            metrics.counter(
                "vor_carryover_reused_total",
                help="Inherited residencies extended by a later cycle",
            ).inc(reused)
        _log.info(
            "cycle %d: %d request(s), $%.2f net, carryover %d in / %d out",
            result.cycle_index,
            len(batch),
            result.net_total_cost,
            carried_in,
            result.carried_out,
        )
        self._cycle_index += 1
        return result

    def rebind(self, cost_model: CostModel) -> None:
        """Swap the scheduling cost model between cycles.

        The carryover state, cycle numbering and boundary clock are
        preserved -- only the model both phases price against changes.
        This is the replica-migration hook: the horizon layer rebinds a
        model carrying the migrated :class:`~repro.replication.ReplicaMap`
        and the next :meth:`schedule_cycle` serves from the new homes.
        """
        self.cost_model = scheduling_model(
            self.topology, self.catalog, cost_model=cost_model
        )

    def amend_cycle(self, result: CycleResult, plan, *, batch=None,
                    masking: str = "cycle"):
        """Re-solve the last closed cycle around an active fault plan.

        Runs the :class:`~repro.faults.contingency.ContingencyScheduler`
        over ``result.schedule`` and re-rolls the carryover state from the
        patched schedule: entries of re-solved videos are re-derived,
        entries stranded at failed storages are dropped (their cached copy
        is gone), everything else carries forward untouched.

        Args:
            result: The :class:`CycleResult` of the cycle to amend (must be
                the most recently closed cycle -- the carryover state rolls
                from it).
            plan: The active :class:`~repro.faults.plan.FaultPlan`.
            batch: The cycle's request batch; reconstructed from the
                schedule's deliveries when omitted.
            masking: Recovery stance -- ``"cycle"`` (conservative,
                whole-cycle masking) or ``"windowed"`` (time-aware: only
                services intersecting a fault window are re-solved, and a
                carried-over cache is dropped only when an outage actually
                overlaps its occupancy).

        Returns:
            The :class:`~repro.faults.contingency.RecoveryResult`; its
            ``schedule`` is the patched plan for the amended cycle.
        """
        from repro.faults.contingency import ContingencyScheduler
        from repro.faults.inject import combined_effects

        if self._cycle_index == 0:
            raise ScheduleError("no cycle has been closed yet: nothing to amend")
        contingency = ContingencyScheduler(
            self.cost_model,
            heat_metric=self.heat_metric,
            obs=self.obs,
            masking=masking,
        )
        recovery = contingency.recover(result.schedule, plan, batch=batch)
        effects = combined_effects(self.topology, plan)
        impacted = set(recovery.impacted)
        boundary = self._last_boundary

        def stranded(c: ResidencyInfo) -> bool:
            if c.location not in effects.down_nodes:
                return False
            if masking != "windowed":
                return True  # conservative: ever-down storages lose caches
            playback = self.catalog[c.video_id].playback
            down_there = combined_effects(
                self.topology,
                plan.overlapping(c.t_start, c.t_last + playback),
            ).down_nodes
            return c.location in down_there

        new_carry: dict[str, list[ResidencyInfo]] = {}
        for video_id, residencies in self._carryover.items():
            if video_id in impacted:
                continue  # re-derived from the patched schedule below
            kept = [c for c in residencies if not stranded(c)]
            if kept:
                new_carry[video_id] = kept
        for video_id in impacted:
            if video_id not in recovery.schedule:
                continue  # every request lost: the file left the schedule
            video = self.catalog[video_id]
            for c in recovery.schedule.file(video_id).residencies:
                if c.t_last + video.playback > boundary:
                    new_carry.setdefault(video_id, []).append(c)
        self._carryover = new_carry
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_cycles_amended_total",
                help="Cycle schedules amended by contingency re-scheduling",
            ).inc()
        _log.info(
            "amended cycle %d: %d video(s) re-solved, carryover now %d",
            result.cycle_index,
            recovery.videos_resolved,
            sum(len(v) for v in new_carry.values()),
        )
        return recovery

    # -- internals -------------------------------------------------------------

    def _count_reused(
        self, final: Schedule, seeds: dict[str, tuple[ResidencyInfo, ...]]
    ) -> int:
        reused = 0
        for video_id, seed in seeds.items():
            by_loc = {s.location: s for s in seed}
            if video_id not in final:
                continue
            for c in final.file(video_id).residencies:
                s = by_loc.get(c.location)
                if s is not None and c.t_start == s.t_start and c.t_last > s.t_last:
                    reused += 1
        return reused

    def _roll_state(self, final: Schedule, cycle_end: float) -> None:
        """Carry forward every residency still occupying space past the end."""
        new_carry: dict[str, list[ResidencyInfo]] = {}
        # this cycle's schedule (includes extended seeds for requested titles)
        for c in final.residencies:
            video = self.catalog[c.video_id]
            if c.t_last + video.playback > cycle_end:
                new_carry.setdefault(c.video_id, []).append(c)
        # unrequested carryover whose tails still cross the new boundary
        for video_id, residencies in self._carryover.items():
            if video_id in {fs.video_id for fs in final}:
                continue
            video = self.catalog[video_id]
            for c in residencies:
                if c.t_last + video.playback > cycle_end:
                    new_carry.setdefault(video_id, []).append(c)
        self._carryover = new_carry
