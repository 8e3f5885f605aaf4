"""Heat-driven replica migration between scheduling cycles.

A long-running VOR service watches popularity drift: the replica map that
was cheap for cycle ``k`` leaves the new hot titles homed far from their
audiences in cycle ``k+1``.  :class:`MigrationPlanner` closes that gap at
each cycle boundary:

1. **Re-derive heat** from the cycle that just closed (its observed request
   batch) and build a candidate map with
   :meth:`repro.replication.ReplicaMap.heat_placement`.
2. **Price every per-video delta as a real staged transfer**: each added
   copy ships ``video.size`` bytes from the cheapest incumbent home at the
   service model's route rate, ``cost_model.router.routes_to(dst)[home].rate``,
   and occupies a tape drive for
   :meth:`repro.warehouse.hierarchy.WarehouseSpec.staging_duration`
   seconds of the inter-cycle maintenance window.
3. **Accept only paying moves**: a video's move must project strictly more
   delivery-Ψ savings over the *next* cycle's already-booked reservations
   (VOR lead time means that demand is known) than its staging transfers
   cost, and the surviving move set must also win a full two-phase **trial
   solve** of the next batch -- candidate Ψ plus staging cost strictly
   below incumbent Ψ -- before it is adopted.  The trials are what-ifs of
   the next close itself (carryover seeds and background included), so
   the adopted map's trial becomes that close.
4. **Price drop-side capacity reclamation**: every dropped copy frees
   ``video.size`` bytes of the warehouse's disk
   (:attr:`~repro.warehouse.hierarchy.WarehouseSpec.disk_capacity`), and
   added copies must fit the freed space -- drops are applied best-first
   alongside adds, so a plan that swaps a cold title out can swap a hot
   title *in* at a warehouse that was full.  Disk and drive budgets are
   fitted in that one pass: adds that do not fit are rejected with reason
   ``"disk-capacity"``, stagings past the drive window with
   ``"drive-budget"``, and a rejected move's drops free nothing, so the
   capacity the trial solve sees is exactly what the disks hold.

The planner is a pure function of its inputs: no wall clock, no RNG beyond
the seeded candidate placement, so the same arguments always return the
same plan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

from repro.catalog.catalog import VideoCatalog
from repro.core.costmodel import CostModel
from repro.core.scheduler import ScheduleResult
from repro.errors import ReplicationError
from repro.replication.replica import ReplicaMap
from repro.topology.graph import Topology
from repro.warehouse.hierarchy import WarehouseSpec
from repro.workload.requests import RequestBatch

#: Why a per-video move was (not) adopted.
MOVE_REASONS = (
    "accepted",        # projected savings beat staging cost and the trial solve
    "no-demand",       # title not booked next cycle: nothing to save on
    "no-improvement",  # projected savings do not strictly beat staging cost
    "unreachable",     # an added home cannot be staged from any incumbent home
    "drive-budget",    # tape drives cannot fit the staging in the window
    "disk-capacity",   # added copies do not fit the warehouse disk, even
                       # after reclaiming this plan's dropped copies
    "trial-regression",  # the aggregate trial solve did not confirm the win
)


@dataclass(frozen=True)
class MigrationConfig:
    """Tuning of the between-cycle migration planner.

    Attributes:
        degree: Copies per cold title in the candidate placement (hot
            titles get :meth:`~repro.replication.ReplicaMap.heat_placement`'s
            defaults: the top quarter, homed at every warehouse).
        seed: Seed for the candidate placement's round-robin offset.
        staging_window: Seconds of inter-cycle maintenance window available
            for staging transfers.  Total accepted drive time is capped at
            ``tape_drives * staging_window`` when a
            :class:`~repro.warehouse.hierarchy.WarehouseSpec` is present;
            ``None`` disables the budget.
    """

    degree: int = 1
    seed: int = 0
    staging_window: float | None = 3600.0

    def __post_init__(self) -> None:
        if self.staging_window is not None and self.staging_window <= 0:
            raise ReplicationError(
                f"staging_window must be positive, got {self.staging_window}"
            )


@dataclass(frozen=True)
class MigrationMove:
    """One staged copy movement: add a copy at (or drop one from) a home."""

    video_id: str
    action: str  # "add" | "drop"
    warehouse: str
    #: Incumbent home the new copy ships from ("" for drops).
    source: str = ""
    #: Ψ_D of the staging transfer (0 for drops -- deletion is free).
    transfer_cost: float = 0.0
    #: Tape-drive seconds the staging occupies (0 for drops).
    staging_seconds: float = 0.0
    #: Disk bytes the move frees at the warehouse (``video.size`` for
    #: drops, 0 for adds) -- the capacity the planner reclaims and makes
    #: available to this plan's own added copies.
    reclaimed_bytes: float = 0.0


@dataclass(frozen=True)
class VideoDecision:
    """The planner's verdict on one video's proposed home-set change."""

    video_id: str
    accepted: bool
    reason: str
    moves: tuple[MigrationMove, ...] = ()
    #: Projected next-cycle delivery-Ψ saving of the candidate homes.
    projected_saving: float = 0.0
    #: Total staging transfer cost of the added copies.
    staging_cost: float = 0.0

    def to_json_dict(self) -> dict:
        return {
            "video_id": self.video_id,
            "accepted": self.accepted,
            "reason": self.reason,
            "moves": [
                {
                    "action": m.action,
                    "warehouse": m.warehouse,
                    "source": m.source,
                    "transfer_cost": round(m.transfer_cost, 6),
                    "staging_seconds": round(m.staging_seconds, 6),
                    "reclaimed_bytes": round(m.reclaimed_bytes, 6),
                }
                for m in self.moves
            ],
            "projected_saving": round(self.projected_saving, 6),
            "staging_cost": round(self.staging_cost, 6),
        }


@dataclass(frozen=True)
class MigrationPlan:
    """Everything one cycle-boundary migration decision produced."""

    boundary_index: int
    old_map: ReplicaMap
    new_map: ReplicaMap
    accepted: tuple[VideoDecision, ...] = ()
    rejected: tuple[VideoDecision, ...] = ()
    #: Trial-solve Ψ of the next batch under each map (``None`` when no
    #: move survived the per-video screen and no trial ran).
    trial_psi_incumbent: float | None = None
    trial_psi_candidate: float | None = None

    @property
    def staging_cost(self) -> float:
        """Total transfer cost of every accepted staging."""
        return math.fsum(d.staging_cost for d in self.accepted)

    @property
    def projected_saving(self) -> float:
        return math.fsum(d.projected_saving for d in self.accepted)

    @property
    def staging_seconds(self) -> float:
        return math.fsum(
            m.staging_seconds for d in self.accepted for m in d.moves
        )

    @property
    def moves(self) -> tuple[MigrationMove, ...]:
        return tuple(m for d in self.accepted for m in d.moves)

    @property
    def applied(self) -> bool:
        return bool(self.accepted)

    def to_json_dict(self) -> dict:
        return {
            "boundary_index": self.boundary_index,
            "accepted": [d.to_json_dict() for d in self.accepted],
            "rejected": [d.to_json_dict() for d in self.rejected],
            "staging_cost": round(self.staging_cost, 6),
            "projected_saving": round(self.projected_saving, 6),
            "trial_psi_incumbent": (
                None
                if self.trial_psi_incumbent is None
                else round(self.trial_psi_incumbent, 6)
            ),
            "trial_psi_candidate": (
                None
                if self.trial_psi_candidate is None
                else round(self.trial_psi_candidate, 6)
            ),
        }


@dataclass
class _Candidate:
    """Internal: a video change that passed the per-video screen."""

    video_id: str
    moves: list[MigrationMove] = field(default_factory=list)
    saving: float = 0.0
    staging_cost: float = 0.0
    staging_seconds: float = 0.0


class MigrationPlanner:
    """Propose and screen replica-map deltas at a cycle boundary.

    Args:
        topology: The delivery infrastructure.
        catalog: Offered titles.
        config: Candidate placement + budget tuning.
        warehouse: Optional tape hierarchy; when present, staging transfers
            consume drive time against ``config.staging_window``.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        config: MigrationConfig | None = None,
        warehouse: WarehouseSpec | None = None,
    ):
        self.topology = topology
        self.catalog = catalog
        self.config = config if config is not None else MigrationConfig()
        self.warehouse = warehouse

    # -- the boundary decision ---------------------------------------------

    def plan(
        self,
        closed_batch: RequestBatch,
        next_batch: RequestBatch,
        cost_model: CostModel,
        *,
        what_if: Callable[[RequestBatch, CostModel], ScheduleResult],
        boundary_index: int = 0,
    ) -> MigrationPlan:
        """Decide the replica map for the next cycle.

        Args:
            closed_batch: The requests of the cycle that just closed --
                the heat signal driving the candidate placement.
            next_batch: The already-booked reservations of the upcoming
                cycle -- the demand the savings are projected over.
            cost_model: The service's current model; its
                :attr:`~repro.core.costmodel.CostModel.replicas` is the
                incumbent map (required).
            what_if: The trial solve, ``(batch, model) -> ScheduleResult``.
                A running service passes
                :meth:`~repro.service.VORService.what_if`, which prices
                the next close's own problem and keeps each trial for that
                close; :meth:`RollingScheduler.what_if
                <repro.extensions.rolling.RollingScheduler.what_if>` of a
                fresh scheduler prices the batch with no carryover.
            boundary_index: Which boundary this is (reporting only).
        """
        incumbent = cost_model.replicas
        if incumbent is None:
            raise ReplicationError(
                "migration planning needs an incumbent replica map: "
                "construct the service with replicas="
            )
        candidate = ReplicaMap.heat_placement(
            self.topology,
            self.catalog,
            closed_batch,
            degree=self.config.degree,
            seed=self.config.seed,
        )
        demand = next_batch.by_video() if next_batch else {}

        screened: list[_Candidate] = []
        rejected: list[VideoDecision] = []
        for video_id in sorted(v.video_id for v in self.catalog):
            old_homes = frozenset(incumbent.homes(video_id))
            new_homes = frozenset(candidate.homes(video_id))
            if old_homes == new_homes:
                continue
            verdict = self._screen_video(
                video_id, old_homes, new_homes,
                demand.get(video_id, ()), cost_model,
            )
            if isinstance(verdict, _Candidate):
                screened.append(verdict)
            else:
                rejected.append(verdict)

        screened = self._fit_budgets(incumbent, screened, rejected)
        if not screened:
            return MigrationPlan(
                boundary_index=boundary_index,
                old_map=incumbent,
                new_map=incumbent,
                rejected=tuple(sorted(rejected, key=lambda d: d.video_id)),
            )

        pruned = self._compose_map(incumbent, candidate, screened)
        psi_inc, psi_cand = self._trial(next_batch, cost_model, pruned, what_if)
        staging_total = math.fsum(c.staging_cost for c in screened)
        if psi_cand + staging_total < psi_inc:
            accepted = tuple(
                VideoDecision(
                    video_id=c.video_id,
                    accepted=True,
                    reason="accepted",
                    moves=tuple(c.moves),
                    projected_saving=c.saving,
                    staging_cost=c.staging_cost,
                )
                for c in screened
            )
            new_map = pruned
        else:
            rejected.extend(
                VideoDecision(
                    video_id=c.video_id,
                    accepted=False,
                    reason="trial-regression",
                    moves=tuple(c.moves),
                    projected_saving=c.saving,
                    staging_cost=c.staging_cost,
                )
                for c in screened
            )
            accepted = ()
            new_map = incumbent
        return MigrationPlan(
            boundary_index=boundary_index,
            old_map=incumbent,
            new_map=new_map,
            accepted=accepted,
            rejected=tuple(sorted(rejected, key=lambda d: d.video_id)),
            trial_psi_incumbent=psi_inc,
            trial_psi_candidate=psi_cand,
        )

    # -- internals -----------------------------------------------------------

    def _screen_video(
        self,
        video_id: str,
        old_homes: frozenset[str],
        new_homes: frozenset[str],
        requests,
        cost_model: CostModel,
    ):
        """Per-video screen: projected savings must beat staging cost."""
        video = self.catalog[video_id]
        if not requests:
            return VideoDecision(video_id, False, "no-demand")

        router = cost_model.router

        def rates_to(dst: str, homes: frozenset[str]) -> dict[str, float]:
            """The model's $/byte rate from each home that reaches ``dst``."""
            routes = router.routes_to(dst)
            return {h: routes[h].rate for h in sorted(homes) if h in routes}

        saving = 0.0
        for r in requests:
            before = min(
                rates_to(r.local_storage, old_homes).values(), default=math.inf
            )
            after = min(
                rates_to(r.local_storage, new_homes).values(), default=math.inf
            )
            if math.isinf(before) or math.isinf(after):
                continue  # the trial solve arbitrates reachability corner cases
            saving += video.network_volume * (before - after)

        cand = _Candidate(video_id)
        for w in sorted(new_homes - old_homes):
            src, rate = "", math.inf
            for h, r in rates_to(w, old_homes).items():
                if r < rate:
                    src, rate = h, r
            if math.isinf(rate):
                return VideoDecision(video_id, False, "unreachable")
            seconds = (
                self.warehouse.staging_duration(video.size)
                if self.warehouse is not None
                else 0.0
            )
            cand.moves.append(
                MigrationMove(
                    video_id=video_id,
                    action="add",
                    warehouse=w,
                    source=src,
                    transfer_cost=video.size * rate,
                    staging_seconds=seconds,
                )
            )
            cand.staging_cost += video.size * rate
            cand.staging_seconds += seconds
        for w in sorted(old_homes - new_homes):
            cand.moves.append(
                MigrationMove(
                    video_id=video_id,
                    action="drop",
                    warehouse=w,
                    reclaimed_bytes=video.size,
                )
            )
        cand.saving = saving
        if not saving > cand.staging_cost:
            return VideoDecision(
                video_id, False, "no-improvement",
                moves=tuple(cand.moves),
                projected_saving=saving,
                staging_cost=cand.staging_cost,
            )
        return cand

    def _fit_budgets(
        self,
        incumbent: ReplicaMap,
        screened: list[_Candidate],
        rejected: list[VideoDecision],
    ) -> list[_Candidate]:
        """Fit the screened moves to the warehouse disks and tape drives.

        One best-first pass (largest projected net saving first, then
        video id).  Per-warehouse free bytes start at
        :attr:`~repro.warehouse.hierarchy.WarehouseSpec.disk_capacity`
        minus the incumbent map's occupancy, and the drive budget is
        ``tape_drives * staging_window`` seconds.  A candidate's *drops*
        reclaim their video's size before its *adds* are charged, so a
        swap (drop a cold title, add a hot one) fits where the add alone
        would not.  A candidate is kept only when its adds fit the disk
        after its own drops (else ``"disk-capacity"``) and its staging fits
        the drive time left (else ``"drive-budget"``); only a kept
        candidate's reclaims and drive time are applied, so the space a
        later add spends is freed by a drop that really happens.
        """
        if self.warehouse is None or not screened:
            return screened
        capacity = self.warehouse.disk_capacity
        window = self.config.staging_window
        budget = math.inf if window is None else self.warehouse.tape_drives * window
        free: dict[str, float] = {
            w.name: capacity for w in self.topology.warehouses
        }
        for v in self.catalog:
            for home in incumbent.homes(v.video_id):
                free[home] = free.get(home, capacity) - v.size
        kept: list[_Candidate] = []
        used = 0.0
        ranked = sorted(
            screened,
            key=lambda c: (-(c.saving - c.staging_cost), c.video_id),
        )
        for c in ranked:
            delta: dict[str, float] = {}
            for m in c.moves:
                if m.action == "drop":
                    delta[m.warehouse] = (
                        delta.get(m.warehouse, 0.0) + m.reclaimed_bytes
                    )
            reason = None
            for m in c.moves:
                if m.action != "add":
                    continue
                size = self.catalog[m.video_id].size
                if size > free.get(m.warehouse, capacity) + delta.get(
                    m.warehouse, 0.0
                ):
                    reason = "disk-capacity"
                    break
                delta[m.warehouse] = delta.get(m.warehouse, 0.0) - size
            if reason is None and used + c.staging_seconds > budget:
                reason = "drive-budget"
            if reason is None:
                for w, d in delta.items():
                    free[w] = free.get(w, capacity) + d
                used += c.staging_seconds
                kept.append(c)
            else:
                rejected.append(
                    VideoDecision(
                        video_id=c.video_id,
                        accepted=False,
                        reason=reason,
                        moves=tuple(c.moves),
                        projected_saving=c.saving,
                        staging_cost=c.staging_cost,
                    )
                )
        kept.sort(key=lambda c: c.video_id)
        return kept

    def _compose_map(
        self,
        incumbent: ReplicaMap,
        candidate: ReplicaMap,
        screened: list[_Candidate],
    ) -> ReplicaMap:
        moved = {c.video_id for c in screened}
        homes = {
            v.video_id: (
                candidate.homes(v.video_id)
                if v.video_id in moved
                else incumbent.homes(v.video_id)
            )
            for v in self.catalog
        }
        pruned = ReplicaMap(homes)
        pruned.validate(self.topology, self.catalog)
        return pruned

    def _trial(
        self,
        next_batch: RequestBatch,
        cost_model: CostModel,
        pruned: ReplicaMap,
        what_if: Callable[[RequestBatch, CostModel], ScheduleResult],
    ) -> tuple[float, float]:
        """Ψ of the next batch's full two-phase solve under both maps.

        Each map is solved by ``what_if`` on its own
        :meth:`CostModel.with_replicas` clone (a shared route table,
        private hit/miss counters), the incumbent first.
        """
        psi_inc, psi_cand = (
            what_if(next_batch, cost_model.with_replicas(replicas)).total_cost
            for replicas in (cost_model.replicas, pruned)
        )
        return psi_inc, psi_cand
