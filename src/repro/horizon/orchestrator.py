"""The multi-cycle horizon orchestrator.

One :class:`~repro.service.VORService` cycle is the paper's unit of work;
a deployed service runs them back-to-back forever.
:class:`HorizonOrchestrator` chains cycles over a *horizon* and adds the
three things a single cycle cannot express:

* **replica migration** -- between cycles the
  :class:`~repro.horizon.migration.MigrationPlanner` re-derives heat from
  the closing cycle's workload and re-homes copies when the projected Ψ
  savings beat the staging transfers (see :mod:`repro.horizon.migration`);
* **boundary-spanning fault feeds** -- a
  :class:`~repro.faults.feed.FaultFeed` is split per cycle by *arrival*
  time, and a fault whose window outlives its cycle is carried across the
  seam as a synthetic report at the next boundary, so the existing
  :class:`~repro.online.loop.OnlineAmendmentLoop` amends every cycle the
  window actually touches;
* **mid-stream resume** -- after each amended cycle the
  :func:`~repro.horizon.carryover.build_resume_ledger` pass decides which
  interrupted streams keep their already-delivered blocks, and the
  horizon Ψ accounting charges only the re-transfer tail.

Everything stays deterministic: the orchestrator introduces no RNG and no
wall clock, so a seeded horizon replays bit-identically -- journals
included.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.catalog.catalog import VideoCatalog
from repro.errors import ScheduleError
from repro.faults.feed import FaultEvent, FaultFeed
from repro.horizon.carryover import CarryoverLedger, build_resume_ledger
from repro.horizon.migration import MigrationConfig, MigrationPlan, MigrationPlanner
from repro.obs import NULL_OBS, Observability
from repro.online.loop import OnlineAmendmentLoop, OnlineLoopConfig
from repro.service import CycleReport, VORService
from repro.topology.graph import Topology
from repro.workload.churn import RankChurn
from repro.workload.generators import WorkloadGenerator
from repro.workload.arrival import UniformArrivals
from repro.workload.requests import Request, RequestBatch
from repro import units

_log = logging.getLogger(__name__)


@dataclass(frozen=True)
class HorizonConfig:
    """Tuning of a horizon run.

    Attributes:
        migration: Between-cycle migration tuning; ``None`` freezes the
            initial replica map for the whole horizon.
        online: Amendment-loop tuning for cycles that faults touch.
    """

    migration: MigrationConfig | None = field(default_factory=MigrationConfig)
    online: OnlineLoopConfig = field(default_factory=OnlineLoopConfig)


@dataclass(frozen=True)
class CycleOutcome:
    """What one cycle of the horizon produced."""

    index: int
    cycle_end: float
    requests: int
    deliveries: int
    #: Gross / net (carryover-credited) Ψ of the cycle's final schedule.
    psi_gross: float
    psi_net: float
    carried_in: int
    carried_out: int
    reused_carryover: int
    feasible: bool
    #: Fault events amended into this cycle (0 = clean cycle).
    fault_events: int = 0
    #: Of those, reports carried across the boundary from earlier cycles.
    carried_events: int = 0
    amendment_batches: int = 0
    amendment_outcomes: tuple[str, ...] = ()
    #: What the cycle's last amendment saved; unlike ``requests_lost``
    #: it is not summed over the cycle's amendments.
    requests_saved: int = 0
    #: Requests every amendment of the cycle dropped, summed: each
    #: amendment loses requests the previous schedule still served, so
    #: ``deliveries + requests_lost == requests``.
    requests_lost: int = 0
    ledger: CarryoverLedger | None = None

    @property
    def resumed(self) -> int:
        return self.ledger.resumed if self.ledger is not None else 0

    @property
    def restarted(self) -> int:
        return self.ledger.restarted if self.ledger is not None else 0

    @property
    def resume_credit(self) -> float:
        return self.ledger.credit_total if self.ledger is not None else 0.0

    def to_json_dict(self) -> dict:
        return {
            "index": self.index,
            "cycle_end": self.cycle_end,
            "requests": self.requests,
            "deliveries": self.deliveries,
            "psi_gross": round(self.psi_gross, 6),
            "psi_net": round(self.psi_net, 6),
            "carried_in": self.carried_in,
            "carried_out": self.carried_out,
            "reused_carryover": self.reused_carryover,
            "feasible": self.feasible,
            "fault_events": self.fault_events,
            "carried_events": self.carried_events,
            "amendment_batches": self.amendment_batches,
            "amendment_outcomes": list(self.amendment_outcomes),
            "requests_saved": self.requests_saved,
            "requests_lost": self.requests_lost,
            "resumed": self.resumed,
            "restarted": self.restarted,
            "resume_credit": round(self.resume_credit, 6),
        }


@dataclass(frozen=True)
class HorizonReport:
    """Everything a horizon run produced."""

    cycles: tuple[CycleOutcome, ...] = ()
    migrations: tuple[MigrationPlan, ...] = ()
    feasible: bool = True

    @property
    def migrations_accepted(self) -> int:
        return sum(len(m.accepted) for m in self.migrations)

    @property
    def migrations_rejected(self) -> int:
        return sum(len(m.rejected) for m in self.migrations)

    @property
    def staging_cost(self) -> float:
        """Total Ψ_D of every accepted staging transfer."""
        return math.fsum(m.staging_cost for m in self.migrations)

    @property
    def resumed(self) -> int:
        return sum(c.resumed for c in self.cycles)

    @property
    def restarted(self) -> int:
        return sum(c.restarted for c in self.cycles)

    @property
    def resume_credit(self) -> float:
        return math.fsum(c.resume_credit for c in self.cycles)

    @property
    def psi_trajectory(self) -> tuple[float, ...]:
        """Per-cycle net Ψ, in cycle order."""
        return tuple(c.psi_net for c in self.cycles)

    @property
    def total_psi(self) -> float:
        """Horizon-total Ψ: net cycle spend, plus the staging transfers
        migration paid for, minus the re-transfer tails resumes saved."""
        return (
            math.fsum(c.psi_net for c in self.cycles)
            + self.staging_cost
            - self.resume_credit
        )

    def to_json_dict(self) -> dict:
        """The whole report; replay-invariant (the horizon records no wall
        clock), so CI byte-compares it."""
        return {
            "cycles": [c.to_json_dict() for c in self.cycles],
            "migrations": [m.to_json_dict() for m in self.migrations],
            "feasible": self.feasible,
            "migrations_accepted": self.migrations_accepted,
            "migrations_rejected": self.migrations_rejected,
            "staging_cost": round(self.staging_cost, 6),
            "resumed": self.resumed,
            "restarted": self.restarted,
            "resume_credit": round(self.resume_credit, 6),
            "psi_trajectory": [round(p, 6) for p in self.psi_trajectory],
            "total_psi": round(self.total_psi, 6),
        }

    def summary(self) -> str:
        lines = [
            f"horizon: {len(self.cycles)} cycle(s), "
            f"total psi ${self.total_psi:,.2f} "
            f"(staging ${self.staging_cost:,.2f}, "
            f"resume credit ${self.resume_credit:,.2f})",
            f"  migrations: {self.migrations_accepted} accepted / "
            f"{self.migrations_rejected} rejected",
            f"  interrupted streams: {self.resumed} resumed / "
            f"{self.restarted} restarted",
            f"  feasible: {self.feasible}",
        ]
        for c in self.cycles:
            lines.append(
                f"  cycle {c.index}: {c.requests} req, "
                f"${c.psi_net:,.2f} net, "
                f"{c.fault_events} fault event(s), "
                f"{c.resumed} resumed"
            )
        return "\n".join(lines)


def split_events(
    feed: FaultFeed, boundaries: Sequence[float]
) -> list[tuple[FaultEvent, ...]]:
    """Assign each feed event to the cycle during which it *arrived*.

    Cycle ``k`` owns the half-open arrival window ``(b[k-1], b[k]]`` (the
    first cycle reaches back to ``-inf``); reports arriving after the last
    boundary belong to the last cycle.  This is the feed-splitting
    contract: arrival decides *where the report lands first*; windows that
    outlive the cycle are carried across the seam by the orchestrator.
    """
    if not boundaries:
        raise ScheduleError("split_events needs at least one cycle boundary")
    if list(boundaries) != sorted(boundaries):
        raise ScheduleError(f"boundaries must be ascending, got {boundaries!r}")
    buckets: list[list[FaultEvent]] = [[] for _ in boundaries]
    last = len(boundaries) - 1
    for event in feed:
        k = last
        for i, b in enumerate(boundaries):
            if event.at <= b:
                k = i
                break
        buckets[k].append(event)
    return [tuple(b) for b in buckets]


class HorizonOrchestrator:
    """Chain :class:`~repro.service.VORService` cycles over a horizon.

    The chained service prices with the default cost model over
    ``replicas`` and resolves overflows with the default heat metric.

    Args:
        topology: The delivery infrastructure.
        catalog: Offered titles.
        replicas: Initial :class:`~repro.replication.ReplicaMap`.  Required
            when migration is enabled (there must be an incumbent map to
            migrate); ``None`` with migration disabled reproduces the
            paper's single-warehouse model.
        obs: Observability handle; the orchestrator journals
            ``horizon-cycle``, ``migration``, ``resumed`` and
            ``restarted`` events and emits the ``vor_horizon_*`` metric
            families on it.
        config: Horizon tuning (:class:`HorizonConfig`).
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        replicas=None,
        obs: Observability | None = None,
        config: HorizonConfig | None = None,
    ):
        self.config = config if config is not None else HorizonConfig()
        self.obs = obs if obs is not None else NULL_OBS
        self.topology = topology
        self.catalog = catalog
        self.service = VORService(
            topology,
            catalog,
            lead_time=0.0,
            obs=self.obs,
            replicas=replicas,
        )
        self.planner: MigrationPlanner | None = None
        if self.config.migration is not None:
            if self.service.cost_model.replicas is None:
                raise ScheduleError(
                    "migration needs an initial replica map: pass replicas= "
                    "or disable it with HorizonConfig(migration=None)"
                )
            self.planner = MigrationPlanner(
                topology,
                catalog,
                config=self.config.migration,
            )
        #: longest playback in the catalog: how far past a boundary a
        #: cycle's streams can still be running (the carry-across tail).
        self._tail = max((v.playback for v in catalog), default=0.0)

    def run(
        self,
        cycles: Sequence[tuple[RequestBatch, float]],
        *,
        feed: FaultFeed | None = None,
    ) -> HorizonReport:
        """Run the horizon: each ``(batch, cycle_end)`` pair is one cycle.

        Returns the :class:`HorizonReport`; per-cycle schedules and
        billing stay available through the service's observability
        journal.
        """
        if not cycles:
            raise ScheduleError("a horizon needs at least one cycle")
        boundaries = [end for _, end in cycles]
        if boundaries != sorted(boundaries):
            raise ScheduleError(
                f"cycle boundaries must ascend, got {boundaries!r}"
            )
        buckets = (
            split_events(feed, boundaries)
            if feed is not None
            else [()] * len(cycles)
        )
        feed_name = (feed.name or "horizon") if feed is not None else "horizon"
        feed_seed = feed.seed if feed is not None else None

        outcomes: list[CycleOutcome] = []
        migrations: list[MigrationPlan] = []
        known: list[FaultEvent] = []
        prev_end = 0.0
        feasible = True
        for k, (batch, cycle_end) in enumerate(cycles):
            if k == 0 or self.planner is None:
                self._book(batch, now=prev_end)
            report = self.service.close_cycle(cycle_end=cycle_end)

            carried = tuple(
                FaultEvent(at=prev_end, fault=e.fault)
                for e in known
                if e.fault.overlaps(prev_end, cycle_end + self._tail)
            )
            arrived = tuple(
                e
                for e in buckets[k]
                if e.fault.overlaps(prev_end, cycle_end + self._tail)
            )
            known.extend(buckets[k])

            ledger: CarryoverLedger | None = None
            run_report = None
            if carried or arrived:
                cycle_feed = FaultFeed(
                    events=carried + arrived, name=feed_name, seed=feed_seed
                )
                loop = OnlineAmendmentLoop(
                    self.service, self.config.online, obs=self.obs
                )
                run_report = loop.run(cycle_feed, report)
                amended = run_report.final
                if run_report.plan is not None:
                    ledger = build_resume_ledger(
                        report.cycle.schedule,
                        amended.cycle.schedule,
                        run_report.plan,
                        self.service.cost_model,
                        self.catalog,
                    )
                    self._journal_ledger(ledger)
                report = amended

            outcome = self._outcome(
                k, cycle_end, batch, report, run_report,
                ledger, len(carried), len(arrived),
            )
            feasible = feasible and outcome.feasible
            outcomes.append(outcome)
            self._record_cycle(outcome)

            if self.planner is not None and k + 1 < len(cycles):
                # Book the next cycle first: the trials then solve the
                # exact batch the next close will, and the adopted map's
                # trial becomes that close.
                next_batch, next_end = cycles[k + 1]
                self._book(next_batch, now=cycle_end)
                plan = self.planner.plan(
                    batch,
                    self.service.due(next_end),
                    self.service.cost_model,
                    boundary_index=k,
                    what_if=self.service.what_if,
                )
                if plan.applied:
                    self.service.migrate_replicas(plan.new_map)
                migrations.append(plan)
                self._record_migration(plan)
            prev_end = cycle_end

        report = HorizonReport(
            cycles=tuple(outcomes),
            migrations=tuple(migrations),
            feasible=feasible,
        )
        metrics = self.obs.metrics
        if metrics.enabled:
            metrics.gauge(
                "vor_horizon_total_psi_dollars",
                help="Horizon-total psi (staging priced, resume credited)",
            ).set(report.total_psi)
        _log.info(
            "horizon done: %d cycle(s), $%.2f total psi, "
            "%d migration(s) accepted, %d stream(s) resumed",
            len(outcomes),
            report.total_psi,
            report.migrations_accepted,
            report.resumed,
        )
        return report

    # -- internals -----------------------------------------------------------

    def _book(self, batch: RequestBatch, *, now: float) -> None:
        for request in sorted(batch):
            self.service.reserve(
                request.user_id,
                request.video_id,
                request.start_time,
                local_storage=request.local_storage,
                now=now,
            )

    def _outcome(
        self,
        index: int,
        cycle_end: float,
        batch: RequestBatch,
        report: CycleReport,
        run_report,
        ledger: CarryoverLedger | None,
        carried_events: int,
        arrived_events: int,
    ) -> CycleOutcome:
        recovery = report.recovery
        records = run_report.records if run_report is not None else ()
        return CycleOutcome(
            index=index,
            cycle_end=cycle_end,
            requests=len(batch),
            deliveries=len(report.cycle.schedule.deliveries),
            psi_gross=report.cycle.total_cost,
            psi_net=report.cycle.net_total_cost,
            carried_in=report.cycle.carried_in,
            carried_out=report.cycle.carried_out,
            reused_carryover=report.cycle.reused_carryover,
            feasible=report.feasible,
            fault_events=carried_events + arrived_events,
            carried_events=carried_events,
            amendment_batches=(
                run_report.batches_total if run_report is not None else 0
            ),
            amendment_outcomes=tuple(r.outcome for r in records),
            requests_saved=(
                recovery.requests_saved if recovery is not None else 0
            ),
            requests_lost=sum(r.lost for r in records),
            ledger=ledger,
        )

    def _journal_ledger(self, ledger: CarryoverLedger) -> None:
        journal = self.obs.journal
        if not journal.enabled:
            return
        for entry in ledger.entries:
            if entry.outcome == "resumed":
                journal.emit(
                    "resumed",
                    request=entry.request,
                    fraction=round(entry.fraction, 6),
                    credit=round(entry.credit, 6),
                )
            else:
                journal.emit(
                    "restarted", request=entry.request, reason=entry.reason
                )

    def _record_cycle(self, outcome: CycleOutcome) -> None:
        journal = self.obs.journal
        if journal.enabled:
            journal.emit(
                "horizon-cycle",
                index=outcome.index,
                requests=outcome.requests,
                psi_net=round(outcome.psi_net, 6),
                fault_events=outcome.fault_events,
                carried_events=outcome.carried_events,
                resumed=outcome.resumed,
                restarted=outcome.restarted,
                feasible=outcome.feasible,
            )
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        metrics.counter(
            "vor_horizon_cycles_total", help="Horizon cycles orchestrated"
        ).inc()
        metrics.gauge(
            "vor_horizon_cycle_psi_dollars",
            help="Per-cycle net psi along the horizon",
            cycle=outcome.index,
        ).set(outcome.psi_net)
        for disposition, count in (
            ("arrived", outcome.fault_events - outcome.carried_events),
            ("carried", outcome.carried_events),
        ):
            if count:
                metrics.counter(
                    "vor_horizon_feed_events_total",
                    help="Fault reports amended into horizon cycles",
                    disposition=disposition,
                ).inc(count)
        if outcome.ledger is not None:
            for outcome_kind, count in (
                ("resumed", outcome.resumed),
                ("restarted", outcome.restarted),
            ):
                if count:
                    metrics.counter(
                        "vor_horizon_resumes_total",
                        help="Interrupted streams classified after recovery",
                        outcome=outcome_kind,
                    ).inc(count)
            metrics.counter(
                "vor_horizon_resume_credit_dollars_total",
                help="Psi_D already delivered before interruption (credited)",
            ).inc(outcome.resume_credit)

    def _record_migration(self, plan: MigrationPlan) -> None:
        journal = self.obs.journal
        if journal.enabled:
            for decision in plan.accepted + plan.rejected:
                journal.emit(
                    "migration",
                    video_id=decision.video_id,
                    boundary=plan.boundary_index,
                    accepted=decision.accepted,
                    reason=decision.reason,
                    moves=tuple(
                        f"{m.action}:{m.warehouse}" for m in decision.moves
                    ),
                    staging_cost=round(decision.staging_cost, 6),
                    projected_saving=round(decision.projected_saving, 6),
                )
        metrics = self.obs.metrics
        if not metrics.enabled:
            return
        for outcome, count in (
            ("accepted", len(plan.accepted)),
            ("rejected", len(plan.rejected)),
        ):
            if count:
                metrics.counter(
                    "vor_horizon_migrations_total",
                    help="Per-video migration decisions at cycle boundaries",
                    outcome=outcome,
                ).inc(count)
        if plan.staging_cost:
            metrics.counter(
                "vor_horizon_staging_dollars_total",
                help="Psi_D of accepted replica staging transfers",
            ).inc(plan.staging_cost)


def generate_drifting_cycles(
    topology: Topology,
    catalog: VideoCatalog,
    *,
    cycles: int,
    cycle_length: float = units.DAY,
    seed: int = 0,
    churn: float = 0.35,
    users_per_neighborhood: int = 4,
) -> list[tuple[RequestBatch, float]]:
    """A seeded multi-cycle workload whose Zipf heat drifts between cycles.

    Cycle ``k`` spans ``[k * cycle_length, (k+1) * cycle_length)``; each
    cycle draws a fresh batch whose rank->title assignment has churned by
    ``churn`` since the previous one (see
    :class:`~repro.workload.churn.RankChurn`).  Deterministic: the same
    arguments always produce the same horizon input.
    """
    if cycles < 1:
        raise ScheduleError(f"need at least one cycle, got {cycles}")
    generator = WorkloadGenerator(
        topology,
        catalog,
        users_per_neighborhood=users_per_neighborhood,
        arrivals=UniformArrivals(cycle_length),
    )
    churner = RankChurn(len(catalog), churn=churn, seed=seed)
    out: list[tuple[RequestBatch, float]] = []
    permutation = churner.permutation
    for k in range(cycles):
        batch = generator.generate(seed + k, rank_permutation=permutation)
        shifted = RequestBatch(
            Request(
                r.start_time + k * cycle_length,
                r.video_id,
                r.user_id,
                r.local_storage,
            )
            for r in batch
        )
        out.append((shifted, (k + 1) * cycle_length))
        permutation = churner.advance()
    return out
