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
state forward.  :meth:`RollingScheduler.what_if` solves a batch the way the
next close would, under any model; the close adopts a kept what-if of its
own problem instead of solving it again.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.heat import HeatMetric
from repro.core.schedule import ResidencyInfo, Schedule
from repro.core.scheduler import (
    ScheduleResult,
    record_schedule_metrics,
    scheduling_model,
    solve_two_phase,
)
from repro.core.sorp import ResolutionStats
from repro.core.spacefunc import SpaceProfile
from repro.errors import ScheduleError
from repro.obs import NULL_OBS, MetricsTape, Observability, RequestJournal
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
    #: True when the close adopted a kept what-if solve of its own problem
    #: (:meth:`RollingScheduler.what_if`) instead of solving it.
    reused_solve: bool = False

    @property
    def total_cost(self) -> float:
        """Gross Ψ of this cycle's schedule (incl. inherited intervals)."""
        return self.cost.total

    @property
    def net_total_cost(self) -> float:
        """This cycle's incremental spend: gross minus the carryover credit."""
        return self.cost.total - self.carryover_credit


@dataclass
class _KeptSolve:
    """A what-if solve, kept for the close whose problem it may be."""

    batch: RequestBatch
    cost_model: CostModel
    result: ScheduleResult
    #: The solve's metric operations and journal events, held back until
    #: the close adopts it (``None`` where the service's handle is inert).
    tape: MetricsTape | None
    journal: RequestJournal | None


class RollingScheduler:
    """Cycle-after-cycle scheduler with carryover residency state."""

    #: Phase-2 victim selection criterion of every solve
    HEAT_METRIC = HeatMetric.SPACE_TIME_PER_COST

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        obs: Observability | None = None,
        replicas=None,
    ):
        self.topology = topology
        self.catalog = catalog
        self.cost_model = scheduling_model(topology, catalog, replicas=replicas)
        self.obs = obs if obs is not None else NULL_OBS
        #: committed residencies whose occupancy outlives their cycle
        self._carryover: dict[str, list[ResidencyInfo]] = {}
        self._cycle_index = 0
        self._last_boundary = float("-inf")
        #: what-if solves since the last close or amendment; both are the
        #: only writers of the carryover, so every kept solve saw the
        #: current one
        self._kept: list[_KeptSolve] = []

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
            seeds = self._seeds(batch)
            kept = self._take_kept(batch)
            if kept is None:
                solved = self._solve(batch, seeds, self.cost_model, self.obs)
            else:
                # The what-if's events and metrics land where the solve's
                # would have: bit-identical to solving here.
                solved = kept.result
                if kept.tape is not None:
                    kept.tape.replay(self.obs.metrics)
                if kept.journal is not None:
                    self.obs.journal.extend(kept.journal)
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
                reused_solve=kept is not None,
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
        record_schedule_metrics(self.obs, final, self.cost_model, result.cost)
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
            self._count_solves("close", 0 if result.reused_solve else 1)
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

    def what_if(
        self, batch: RequestBatch, cost_model: CostModel
    ) -> ScheduleResult:
        """Solve ``batch`` under ``cost_model`` as the next close would.

        The solve takes the current carryover as seeds and background, so
        it prices the close's own problem.  ``cost_model`` must be built
        over this scheduler's topology and catalog (the migration planner
        passes :meth:`~repro.core.costmodel.CostModel.with_replicas`
        clones of :attr:`cost_model`).

        The result is kept.  The next :meth:`schedule_cycle` adopts it
        instead of solving when its batch holds the same requests in the
        same order, its model carries the same
        :class:`~repro.replication.ReplicaMap` object and prices like
        ``cost_model``, and the carryover has not changed; otherwise the
        close solves afresh.  Any close or :meth:`commit_amendment`
        forgets every kept solve.  The solve's journal events and metrics
        wait in a private handle and reach :attr:`obs` only when a close
        adopts it, in the order that close would have emitted them.  Its
        spans go to the live tracer under a ``what_if`` span, where the
        time is spent.
        """
        obs = self.obs
        tape = MetricsTape() if obs.metrics.enabled else None
        journal = RequestJournal() if obs.journal.enabled else None
        private = Observability(
            obs.metrics if tape is None else tape,
            obs.tracer,
            obs.journal if journal is None else journal,
        )
        with obs.tracer.span("what_if", requests=len(batch)):
            result = self._solve(batch, self._seeds(batch), cost_model, private)
        self._kept.append(
            _KeptSolve(batch, cost_model, result, tape, journal)
        )
        self._count_solves("what-if", 1)
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

    def amend_cycle(self, result: CycleResult, plan):
        """Re-solve the last closed cycle around an active fault plan.

        Runs the :class:`~repro.faults.contingency.ContingencyScheduler`
        over ``result.schedule``.  The carryover state is left as it is:
        :meth:`commit_amendment` re-rolls it from the recovery once the
        caller accepts the patched schedule.

        Args:
            result: The :class:`CycleResult` of the cycle to amend (must be
                the most recently closed cycle -- the carryover state rolls
                from it).
            plan: The active :class:`~repro.faults.plan.FaultPlan`.

        Returns:
            The :class:`~repro.faults.contingency.RecoveryResult`; its
            ``schedule`` is the patched plan for the amended cycle.
        """
        from repro.faults.contingency import ContingencyScheduler

        if self._cycle_index == 0:
            raise ScheduleError("no cycle has been closed yet: nothing to amend")
        contingency = ContingencyScheduler(
            self.cost_model, heat_metric=self.HEAT_METRIC, obs=self.obs
        )
        recovery = contingency.recover(result, plan)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_cycles_amended_total",
                help="Cycle schedules amended by contingency re-scheduling",
            ).inc()
        return recovery

    def commit_amendment(self, recovery) -> None:
        """Re-roll the carryover state from an accepted amendment.

        Entries of re-solved videos are re-derived from the patched
        schedule, entries whose storage an outage downs while they are
        resident are dropped (their cached copy is gone; recovery's hit
        rule, each fault over its own window), and everything else carries
        forward untouched.
        """
        from repro.faults.inject import fault_effects, fault_hits

        per_fault = fault_effects(self.topology, recovery.plan)
        impacted = set(recovery.impacted)
        boundary = self._last_boundary
        new_carry: dict[str, list[ResidencyInfo]] = {}
        for video_id, residencies in self._carryover.items():
            if video_id in impacted:
                continue  # re-derived from the patched schedule below
            playback = self.catalog[video_id].playback
            kept = [
                c for c in residencies
                if not fault_hits(
                    per_fault, c.t_start, c.t_last + playback,
                    storage=c.location,
                )
            ]
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
        self._kept = []
        _log.info(
            "amended cycle %d: %d video(s) re-solved, carryover now %d",
            self._cycle_index - 1,
            recovery.videos_resolved,
            sum(len(v) for v in new_carry.values()),
        )

    # -- internals -------------------------------------------------------------

    def _seeds(self, batch: RequestBatch) -> dict[str, tuple[ResidencyInfo, ...]]:
        """Carryover seeding: requested carried-over titles may extend
        their committed caches."""
        return {
            video_id: tuple(self._carryover.get(video_id, ()))
            for video_id in batch.video_ids
        }

    def _solve(
        self,
        batch: RequestBatch,
        seeds: dict[str, tuple[ResidencyInfo, ...]],
        cost_model: CostModel,
        obs: Observability,
    ) -> ScheduleResult:
        """The two-phase solve of ``batch`` against the carryover: the
        ``seeds`` (:meth:`_seeds`) may extend their caches, the rest of the
        carryover is capacity background.  Closes and what-ifs both solve
        here."""
        background: dict[str, list[SpaceProfile]] = {}
        for video_id, residencies in self._carryover.items():
            if video_id in seeds:
                continue  # seeded into the greedy instead
            for c in residencies:
                background.setdefault(c.location, []).append(
                    c.profile(self.catalog[c.video_id])
                )
        return solve_two_phase(
            batch,
            cost_model,
            heat_metric=self.HEAT_METRIC,
            obs=obs,
            seeds=seeds,
            background=background,
        )

    def _take_kept(self, batch: RequestBatch) -> _KeptSolve | None:
        """The kept what-if of this close's exact problem, if any.

        Forgets every kept solve.  The batch comparison runs only against
        a what-if under the close's own map, so a close with nothing kept
        costs nothing.
        """
        kept, self._kept = self._kept, []
        model = self.cost_model
        for k in kept:
            if (
                k.cost_model.replicas is model.replicas
                and k.cost_model.prices_like(model)
                and list(k.batch) == list(batch)
            ):
                return k
        return None

    def _count_solves(self, kind: str, n: int) -> None:
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_rolling_solves_total",
                help="Full two-phase solves run by cycle closes and what-ifs",
                kind=kind,
            ).inc(n)

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
            if video_id in final:
                continue
            video = self.catalog[video_id]
            for c in residencies:
                if c.t_last + video.playback > cycle_end:
                    new_carry.setdefault(video_id, []).append(c)
        self._carryover = new_carry
