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
   service model's route rate, ``cost_model.router.routes_to(dst)[home].rate``.
3. **Accept only paying moves**: a video's move must project strictly more
   delivery-Ψ savings over the *next* cycle's already-booked reservations
   (VOR lead time means that demand is known) than its staging transfers
   cost, and the surviving move set must also win a full two-phase **trial
   solve** of the next batch -- candidate Ψ plus staging cost strictly
   below incumbent Ψ -- before it is adopted.  The trials are what-ifs of
   the next close itself (carryover seeds and background included), so
   the adopted map's trial becomes that close.
4. **Drop freely**: a dropped copy costs nothing and rides along with its
   video's adds; a video's move is adopted or rejected as a whole.

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
from repro.workload.requests import RequestBatch

#: Why a per-video move was (not) adopted.
MOVE_REASONS = (
    "accepted",        # projected savings beat staging cost and the trial solve
    "no-demand",       # title not booked next cycle: nothing to save on
    "no-improvement",  # projected savings do not strictly beat staging cost
    "unreachable",     # an added home cannot be staged from any incumbent home
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
    """

    degree: int = 1
    seed: int = 0


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


class MigrationPlanner:
    """Propose and screen replica-map deltas at a cycle boundary.

    Args:
        topology: The delivery infrastructure.
        catalog: Offered titles.
        config: Candidate placement tuning.
    """

    def __init__(
        self,
        topology: Topology,
        catalog: VideoCatalog,
        *,
        config: MigrationConfig | None = None,
    ):
        self.topology = topology
        self.catalog = catalog
        self.config = config if config is not None else MigrationConfig()

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
            """The model's $/byte rate from each home that reaches ``dst``.

            Prices hypothetical home sets, so it reads no
            :meth:`~repro.core.costmodel.CostModel.cheapest_home` and
            leaves out the tariff: the screen only ranks moves, and the
            trial solve, which bills under the tariff, arbitrates."""
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
            cand.moves.append(
                MigrationMove(
                    video_id=video_id,
                    action="add",
                    warehouse=w,
                    source=src,
                    transfer_cost=video.size * rate,
                )
            )
            cand.staging_cost += video.size * rate
        for w in sorted(old_homes - new_homes):
            cand.moves.append(
                MigrationMove(video_id=video_id, action="drop", warehouse=w)
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
