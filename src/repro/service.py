"""The end-to-end Video-On-Reservation service operator.

:class:`VORService` is the facade a provider would actually run: it accepts
reservations ahead of time (enforcing the VOR lead time that makes offline
optimization possible), closes a scheduling cycle on demand, and returns a
complete :class:`CycleReport` -- the feasible schedule, its cost, per-user
invoices, and the simulator's feasibility verdict.  Cycles roll: caches
committed near a boundary keep serving (and occupying space) into the next
cycle.  Tape staging is an offline study of a closed schedule
(:class:`repro.warehouse.staging.StagingPlanner`), not part of a close.

    service = VORService(topology, catalog)
    service.reserve("alice", "video0001", start_time=t, local_storage="IS3")
    ...
    report = service.close_cycle(cycle_end=midnight)
    print(report.summary())
"""

from __future__ import annotations

import logging
from dataclasses import dataclass

import dataclasses

from repro.billing import BillingStatement, allocate_costs
from repro.obs import NULL_OBS, Observability
from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostBreakdown, CostModel
from repro.core.scheduler import ScheduleResult
from repro.errors import ScheduleError, WorkloadError
from repro.extensions.rolling import CycleResult, RollingScheduler
from repro.faults.contingency import RecoveryResult
from repro.faults.plan import FaultPlan
from repro.sim.validate import Violation, validate_schedule
from repro.topology.graph import Topology
from repro.workload.requests import Request, RequestBatch
from repro import units

_log = logging.getLogger(__name__)


@dataclass
class CycleReport:
    """Everything a cycle close produces."""

    cycle: CycleResult
    billing: BillingStatement
    violations: list[Violation]
    #: Set when this report came out of :meth:`VORService.amend_cycle`:
    #: the contingency pass that produced the (patched) schedule.
    recovery: "RecoveryResult | None" = None

    @property
    def cost(self) -> CostBreakdown:
        return self.cycle.cost

    @property
    def feasible(self) -> bool:
        return not self.violations

    def summary(self) -> str:
        lines = [
            f"cycle {self.cycle.cycle_index}: "
            f"{len(self.cycle.schedule.deliveries)} services, "
            f"${self.cycle.net_total_cost:,.2f} net "
            f"(${self.cost.network:,.2f} network / "
            f"${self.cost.storage:,.2f} storage)",
            f"  carryover: {self.cycle.carried_in} in, "
            f"{self.cycle.carried_out} out, "
            f"{self.cycle.reused_carryover} reused",
            f"  overflow fixes: {self.cycle.resolution.iterations} "
            f"(+{100 * self.cycle.resolution.cost_increase_ratio:.2f} % cost)",
            f"  feasible: {self.feasible}",
        ]
        if self.recovery is not None:
            lines.append(
                f"  recovery: {self.recovery.videos_resolved} video(s) "
                f"re-solved, {self.recovery.requests_saved} saved / "
                f"{self.recovery.requests_lost} lost "
                f"(psi {self.recovery.cost_delta:+.2f})"
            )
        return "\n".join(lines)


class VORService:
    """Reservation intake + rolling scheduling + billing + validation.

    Args:
        topology: The delivery infrastructure.
        catalog: Offered titles.
        lead_time: Minimum seconds between booking and showing (the "some
            time in advance" that defines VOR; default one hour).
        obs: Observability handle (:class:`repro.obs.Observability`);
            defaults to the inert :data:`repro.obs.NULL_OBS`.  When live,
            every cycle close records spans (``close_cycle`` → ``cycle`` →
            ``ivsp``/``sorp``/...), pipeline counters, and per-IS peak
            gauges; read them with ``obs.telemetry()``.
        replicas: Optional :class:`~repro.replication.ReplicaMap` homing
            each title at a subset of the warehouses; scheduling then
            serves every request from the cheapest reachable copy, and
            :meth:`amend_cycle` re-solves against the surviving replica
            set after a warehouse loss.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        lead_time: float = units.HOUR,
        obs: Observability | None = None,
        replicas=None,
    ):
        if lead_time < 0:
            raise ScheduleError(f"lead_time must be >= 0, got {lead_time}")
        self.topology = topology
        self.catalog = catalog
        self.lead_time = lead_time
        self.obs = obs if obs is not None else NULL_OBS
        self._rolling = RollingScheduler(
            topology, catalog, obs=self.obs, replicas=replicas
        )
        self._pending: list[Request] = []
        self._storage_names = {s.name for s in topology.storages}
        self._clock = 0.0  # last cycle boundary

    @property
    def cost_model(self) -> CostModel:
        """The model cycles are scheduled, billed and validated on."""
        return self._rolling.cost_model

    @property
    def pending(self) -> int:
        return len(self._pending)

    def refusal(self, request: Request, now: float) -> str | None:
        """Why the service would refuse ``request`` booked at ``now``.

        Returns ``"unknown-title"``, ``"unknown-storage"``, ``"lead-time"``
        (the showing starts less than :attr:`lead_time` after ``now``), or
        ``None`` when the booking is acceptable.
        """
        if request.video_id not in self.catalog:
            return "unknown-title"
        if request.local_storage not in self._storage_names:
            return "unknown-storage"
        if request.start_time < now + self.lead_time:
            return "lead-time"
        return None

    def reserve(
        self,
        user_id: str,
        video_id: str,
        start_time: float,
        *,
        local_storage: str,
        now: float | None = None,
    ) -> Request:
        """Accept one reservation.

        Raises :class:`~repro.errors.WorkloadError` when the title is
        unknown, the neighborhood storage does not exist, or the lead time
        is not respected (see :meth:`refusal`).
        """
        request = Request(start_time, video_id, user_id, local_storage)
        booking_time = self._clock if now is None else now
        reason = self.refusal(request, booking_time)
        journal = self.obs.journal
        if reason is not None:
            journal.emit("rejected", request=request, reason=reason)
            if reason == "unknown-title":
                raise WorkloadError(f"unknown title {video_id!r}")
            if reason == "unknown-storage":
                raise WorkloadError(f"unknown neighborhood storage {local_storage!r}")
            raise WorkloadError(
                f"reservations need {units.fmt_duration(self.lead_time)} lead "
                f"time: showing at {start_time:g} booked at {booking_time:g}"
            )
        self._pending.append(request)
        journal.emit("admitted", request=request, start=start_time)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_reservations_total", help="Reservations accepted"
            ).inc()
        return request

    def close_cycle(self, *, cycle_end: float) -> CycleReport:
        """Schedule all reservations starting before ``cycle_end``.

        Later reservations stay pending for the next cycle.  Returns the
        full :class:`CycleReport`; the service's clock advances to
        ``cycle_end``.
        """
        batch = self.due(cycle_end)
        self._pending = [r for r in self._pending if r.start_time > cycle_end]
        _log.info(
            "closing cycle at %g: %d due, %d still pending",
            cycle_end, len(batch), len(self._pending),
        )

        with self.obs.tracer.span(
            "close_cycle", requests=len(batch), cycle_end=cycle_end
        ) as span:
            cycle = self._rolling.schedule_cycle(batch, cycle_end=cycle_end)
            span.set(reused=cycle.reused_solve)
            with self.obs.tracer.span("billing"):
                billing = allocate_costs(cycle.schedule, self.cost_model)
            with self.obs.tracer.span("validate") as vspan:
                violations = validate_schedule(
                    cycle.schedule,
                    batch,
                    self.cost_model,
                    trusted_residencies=cycle.inherited,
                )
                vspan.set(violations=len(violations))
            span.set(feasible=not violations)
        if violations:
            _log.warning(
                "cycle %d schedule has %d feasibility violation(s)",
                cycle.cycle_index, len(violations),
            )
        self._clock = cycle_end
        return CycleReport(cycle=cycle, billing=billing, violations=violations)

    def due(self, cycle_end: float) -> RequestBatch:
        """The batch a close at ``cycle_end`` would schedule now: every
        pending reservation starting by then."""
        return RequestBatch(r for r in self._pending if r.start_time <= cycle_end)

    def what_if(self, batch: RequestBatch, cost_model: CostModel) -> ScheduleResult:
        """Solve ``batch`` under ``cost_model`` as the next close would.

        See :meth:`repro.extensions.rolling.RollingScheduler.what_if`: a
        what-if of :meth:`due` under the model the next close runs on
        becomes that close, without a second solve.
        """
        return self._rolling.what_if(batch, cost_model)

    def migrate_replicas(self, replicas) -> None:
        """Adopt a migrated replica map for the coming cycles.

        Validates the map, rebinds the cost model (shared route table,
        fresh counters) and the rolling engine; carryover residencies and
        pending reservations are untouched.  Call between cycles -- the
        horizon orchestrator does, after its
        :class:`~repro.horizon.migration.MigrationPlanner` accepts a
        delta.
        """
        replicas.validate(self.topology, self.catalog)
        self._rolling.rebind(self.cost_model.with_replicas(replicas))
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_replica_migrations_total",
                help="Replica maps adopted by a running service",
            ).inc()

    def shed_pending(self, count: int) -> list[Request]:
        """Drop the ``count`` lowest-priority pending reservations.

        Priority follows urgency: the reservations with the *latest*
        showing times (ties broken by video then user id, so shedding is
        deterministic) are shed first -- they have the most time to rebook.
        Returns the shed requests (possibly fewer than ``count``); the
        online amendment loop calls this in degraded mode to keep the
        service responsive while re-solves are failing.
        """
        if count <= 0 or not self._pending:
            return []
        ranked = sorted(
            range(len(self._pending)),
            key=lambda i: (
                self._pending[i].start_time,
                self._pending[i].video_id,
                self._pending[i].user_id,
            ),
        )
        drop = set(ranked[-count:])
        shed = [self._pending[i] for i in sorted(drop)]
        self._pending = [
            r for i, r in enumerate(self._pending) if i not in drop
        ]
        journal = self.obs.journal
        if journal.enabled:
            for request in shed:
                journal.emit("shed", request=request)
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.counter(
                "vor_reservations_shed_total",
                help="Pending reservations shed under degraded operation",
            ).inc(len(shed))
        _log.warning("shed %d pending reservation(s)", len(shed))
        return shed

    def amend_cycle(self, report: CycleReport, plan: FaultPlan) -> CycleReport:
        """Amend the last closed cycle's schedule around an active fault plan.

        Re-solves the fault-hit requests through the contingency scheduler
        (Phase 1 + SORP around the fault windows), re-bills, and
        re-validates the patched schedule with the plan's lost requests
        excused, on the healthy model plus the plan's degraded replay.
        Only a patched schedule that validates re-rolls the carryover
        state, so the next :meth:`close_cycle` inherits the post-fault
        reality -- and a rejected amendment leaves it untouched.

        Args:
            report: The :class:`CycleReport` returned by the most recent
                :meth:`close_cycle`.
            plan: The active fault scenario.

        Returns:
            A fresh :class:`CycleReport` whose ``cycle.schedule`` is the
            patched plan and whose :attr:`CycleReport.recovery` carries the
            SLA/cost outcome of the contingency pass.
        """
        with self.obs.tracer.span("amend_cycle", faults=len(plan)) as span:
            recovery = self._rolling.amend_cycle(report.cycle, plan)
            patched = recovery.schedule
            with self.obs.tracer.span("billing"):
                billing = allocate_costs(patched, self.cost_model)
            lost = set(recovery.lost)
            surviving = RequestBatch(
                d.request
                for d in report.cycle.schedule.deliveries
                if d.request not in lost
            )
            with self.obs.tracer.span("validate") as vspan:
                violations = validate_schedule(
                    patched,
                    surviving,
                    self.cost_model,
                    trusted_residencies=report.cycle.inherited,
                    faults=plan,
                    obs=self.obs,
                )
                vspan.set(violations=len(violations))
            if not violations:
                self._rolling.commit_amendment(recovery)
            span.set(
                impacted=recovery.videos_resolved, feasible=not violations
            )
            self.obs.journal.emit(
                "amended",
                faults=len(plan),
                impacted=recovery.videos_resolved,
                saved=len(recovery.saved),
                lost=len(recovery.lost),
                feasible=not violations,
            )
        if violations:
            _log.warning(
                "amended cycle %d still has %d feasibility violation(s)",
                report.cycle.cycle_index, len(violations),
            )
        cycle = dataclasses.replace(
            report.cycle,
            schedule=patched,
            cost=recovery.cost_after,
            resolution=(
                recovery.resolution
                if recovery.resolution is not None
                else report.cycle.resolution
            ),
            carried_out=len(self._rolling.carryover),
        )
        return CycleReport(
            cycle=cycle,
            billing=billing,
            violations=violations,
            recovery=recovery,
        )
