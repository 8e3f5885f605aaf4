"""The migration planner's screen, budget, and trial acceptance rule."""

from __future__ import annotations

import pytest

from repro import (
    CostModel,
    ReplicaMap,
    Topology,
    VideoCatalog,
    VideoFile,
    WarehouseSpec,
    units,
)
from repro.extensions.rolling import RollingScheduler
from repro.horizon import MigrationConfig, MigrationPlanner
from repro.horizon.migration import MOVE_REASONS, MigrationMove, _Candidate
from repro.topology.graph import ChargingBasis

from .conftest import brownout_topology


def _fresh(planner, cm):
    """Trial solves with no carryover: a fresh rolling scheduler's
    what-if."""
    return RollingScheduler(planner.topology, planner.catalog, cost_model=cm).what_if


@pytest.fixture(scope="module")
def planned(drill_topology, drill_catalog, drill_cycles, drill_replicas):
    """One boundary decision on the drill environment (accepts moves).

    Boundary 1: the incumbent was placed for cycle 0's heat, and the
    rank churn has drifted demand by cycle 1 -- the regime migration
    exists for.  (At boundary 0 the candidate equals the incumbent and
    the plan is trivially empty.)
    """
    cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
    planner = MigrationPlanner(drill_topology, drill_catalog)
    plan = planner.plan(
        drill_cycles[1][0],
        drill_cycles[2][0],
        cm,
        what_if=_fresh(planner, cm),
        boundary_index=1,
    )
    return plan


class TestPlanShape:
    def test_every_decision_carries_a_known_reason(self, planned):
        for decision in (*planned.accepted, *planned.rejected):
            assert decision.reason in MOVE_REASONS

    def test_accepted_decisions_are_marked_accepted(self, planned):
        assert all(d.accepted and d.reason == "accepted" for d in planned.accepted)
        assert all(not d.accepted for d in planned.rejected)

    def test_drill_accepts_at_least_one_move(self, planned):
        assert planned.applied
        assert len(planned.accepted) >= 1

    def test_acceptance_rule_is_trial_psi_plus_staging(self, planned):
        # the whole delta was accepted, so the aggregate trial must have
        # beaten the incumbent even after paying the staging bill
        assert planned.trial_psi_candidate is not None
        assert (
            planned.trial_psi_candidate + planned.staging_cost
            < planned.trial_psi_incumbent
        )

    def test_accepted_adds_price_real_staging(self, planned):
        adds = [
            m
            for d in planned.accepted
            for m in d.moves
            if m.action == "add"
        ]
        assert adds, "drill acceptance should include add moves"
        for move in adds:
            assert move.transfer_cost > 0
            assert move.source, "add moves must name the staging source"

    def test_staging_is_priced_at_the_models_end_to_end_rate(
        self, drill_catalog, drill_cycles, drill_replicas
    ):
        # Under end-to-end charging a pair rate overrides the hop sum; the
        # planner must bill staging exactly as the service's model would.
        topo = brownout_topology()
        topo.charging_basis = ChargingBasis.END_TO_END
        topo.set_pair_rate("VW", "VW2", units.per_gb(100))
        cm = CostModel(topo, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(topo, drill_catalog)
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
        )
        decisions = [*plan.accepted, *plan.rejected]
        adds = [m for d in decisions for m in d.moves if m.action == "add"]
        assert {(m.source, m.warehouse) for m in adds} == {
            ("VW", "VW2"),
            ("VW2", "VW"),
        }
        for move in adds:
            size = drill_catalog[move.video_id].size
            rate = cm.router.route(move.source, move.warehouse).rate
            assert rate == units.per_gb(100)
            assert move.transfer_cost == size * rate
        for d in decisions:
            d_adds = [m for m in d.moves if m.action == "add"]
            if len(d_adds) == 1:
                assert d.staging_cost == d_adds[0].transfer_cost

    def test_warehouse_spec_prices_tape_time(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        # the drill incumbent occupies ~154 GB at VW, over the 100 GB
        # default disk -- give headroom so adds stay disk-feasible here
        planner = MigrationPlanner(
            drill_topology,
            drill_catalog,
            warehouse=WarehouseSpec(disk_capacity=units.gb(400)),
        )
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
        )
        adds = [
            m for d in plan.accepted for m in d.moves if m.action == "add"
        ]
        assert adds
        for move in adds:
            assert move.staging_seconds > 0

    def test_new_map_validates_and_differs_from_incumbent(
        self, planned, drill_topology, drill_catalog
    ):
        planned.new_map.validate(drill_topology, drill_catalog)
        moved = {d.video_id for d in planned.accepted}
        for video_id in moved:
            assert set(planned.new_map.homes(video_id)) != set(
                planned.old_map.homes(video_id)
            )

    def test_json_dict_round_trips_scalars(self, planned):
        doc = planned.to_json_dict()
        assert doc["accepted"] == [d.to_json_dict() for d in planned.accepted]
        assert doc["staging_cost"] == pytest.approx(planned.staging_cost)


class TestRejections:
    def test_requires_incumbent_replicas(
        self, drill_topology, drill_catalog, drill_cycles
    ):
        from repro.errors import ReplicationError

        cm = CostModel(drill_topology, drill_catalog)  # no replicas
        planner = MigrationPlanner(drill_topology, drill_catalog)
        with pytest.raises(ReplicationError):
            planner.plan(
                drill_cycles[0][0],
                drill_cycles[1][0],
                cm,
                what_if=_fresh(planner, cm),
            )

    def test_zero_drive_budget_rejects_every_move(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(
            drill_topology,
            drill_catalog,
            config=MigrationConfig(staging_window=1e-9),
            warehouse=WarehouseSpec(
                tape_drives=1, disk_capacity=units.gb(400)
            ),
        )
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
        )
        assert not plan.applied
        assert plan.new_map is plan.old_map
        assert any(d.reason == "drive-budget" for d in plan.rejected)

    def test_rejections_sorted_when_no_candidate_reaches_the_trial(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        """Boundary 1 with one drive and no staging window: the fit
        rejects every screened move (best-first), and the plan still lists
        its rejections by video id."""
        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(
            drill_topology,
            drill_catalog,
            config=MigrationConfig(staging_window=1e-9),
            warehouse=WarehouseSpec(tape_drives=1),
        )
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
            boundary_index=1,
        )
        assert plan.trial_psi_incumbent is None
        ids = [d.video_id for d in plan.rejected]
        assert {"video0014", "video0033", "video0059"} <= set(ids)
        assert ids == sorted(ids)

    def test_no_demand_next_cycle_accepts_nothing(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        from repro import RequestBatch

        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(drill_topology, drill_catalog)
        plan = planner.plan(
            drill_cycles[1][0], RequestBatch([]), cm, what_if=_fresh(planner, cm)
        )
        assert not plan.applied
        assert all(d.reason == "no-demand" for d in plan.rejected)

    def test_single_warehouse_leaves_nothing_to_migrate(
        self, drill_catalog, drill_cycles
    ):
        """With one warehouse every home is forced -> the plan is empty."""
        from repro.topology import paper_topology

        topo = paper_topology(
            nrate=units.per_gb(500),
            srate=units.per_gb_hour(5),
            capacity=units.gb(3),
        )
        replicas = ReplicaMap.heat_placement(
            topo, drill_catalog, drill_cycles[0][0], degree=1, seed=0
        )
        cm = CostModel(topo, drill_catalog, replicas=replicas)
        planner = MigrationPlanner(topo, drill_catalog)
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
        )
        assert not plan.applied
        assert not plan.accepted
        assert plan.new_map is plan.old_map


def _disk_env():
    """Three warehouses, one 2.5 GB disk each and one tape drive; VW already
    holds both titles (free space negative), VW2 holds only the cold one
    (0.5 GB free), VW3 is empty."""
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_warehouse("VW2")
    topo.add_warehouse("VW3")
    topo.add_storage(
        "IS1", srate=units.per_gb_hour(1.0), capacity=units.gb(10)
    )
    topo.add_edge("VW", "IS1", nrate=units.per_gb(500))
    topo.add_edge("VW2", "IS1", nrate=units.per_gb(100))
    topo.add_edge("VW3", "IS1", nrate=units.per_gb(100))
    catalog = VideoCatalog(
        [
            VideoFile(v, size=units.gb(2.0), playback=units.minutes(90))
            for v in ("cold", "hot")
        ]
    )
    incumbent = ReplicaMap({"cold": ("VW", "VW2"), "hot": ("VW",)})
    planner = MigrationPlanner(
        topo,
        catalog,
        warehouse=WarehouseSpec(disk_capacity=units.gb(2.5), tape_drives=1),
    )
    return planner, incumbent


def _drop(video, warehouse, *, saving):
    return _Candidate(
        video,
        moves=[
            MigrationMove(
                video_id=video,
                action="drop",
                warehouse=warehouse,
                reclaimed_bytes=units.gb(2.0),
            )
        ],
        saving=saving,
    )


def _add(video, warehouse, *, saving):
    return _Candidate(
        video,
        moves=[
            MigrationMove(
                video_id=video,
                action="add",
                warehouse=warehouse,
                source="VW",
                transfer_cost=1.0,
            )
        ],
        saving=saving,
        staging_cost=1.0,
    )


class TestDiskCapacity:
    """Drop-side capacity reclamation in the one disk-and-drive fit."""

    def test_add_without_headroom_rejected(self):
        planner, incumbent = _disk_env()
        rejected = []
        kept = planner._fit_budgets(
            incumbent, [_add("hot", "VW2", saving=50.0)], rejected
        )
        assert kept == []
        (decision,) = rejected
        assert decision.reason == "disk-capacity"
        assert not decision.accepted
        assert decision.video_id == "hot"

    def test_drop_reclaims_space_for_a_later_add(self):
        """The swap the feature exists for: dropping the cold title frees
        the disk the hot title needs, so both candidates survive to the
        trial solve -- the trial sees exactly what the disks will hold."""
        planner, incumbent = _disk_env()
        rejected = []
        kept = planner._fit_budgets(
            incumbent,
            [_add("hot", "VW2", saving=50.0), _drop("cold", "VW2", saving=100.0)],
            rejected,
        )
        assert [c.video_id for c in kept] == ["cold", "hot"]
        assert rejected == []

    def test_rejected_candidate_reverts_its_reclaim(self):
        """A candidate whose add does not fit must not leave its tentative
        drop-reclaims behind for later candidates to spend."""
        planner, incumbent = _disk_env()
        # relocation whose add lands on the over-full VW: rejected, and its
        # VW2 drop must be reverted, so the follow-up add is rejected too
        relocation = _Candidate(
            "cold",
            moves=[
                MigrationMove(
                    video_id="cold",
                    action="drop",
                    warehouse="VW2",
                    reclaimed_bytes=units.gb(2.0),
                ),
                MigrationMove(
                    video_id="cold",
                    action="add",
                    warehouse="VW",
                    source="VW2",
                    transfer_cost=1.0,
                ),
            ],
            saving=100.0,
            staging_cost=1.0,
        )
        rejected = []
        kept = planner._fit_budgets(
            incumbent, [relocation, _add("hot", "VW2", saving=50.0)], rejected
        )
        assert kept == []
        assert [d.reason for d in rejected] == ["disk-capacity"] * 2

    def test_drive_rejected_drop_frees_nothing(self):
        """A relocation whose drop would make room at VW2 but whose staging
        is over the drive budget never happens, so the add it made room
        for does not fit either: otherwise the adopted map would hold
        4.0 GB on VW2's 2.5 GB disk."""
        planner, incumbent = _disk_env()
        relocation = _Candidate(
            "cold",
            moves=[
                MigrationMove(
                    video_id="cold",
                    action="drop",
                    warehouse="VW2",
                    reclaimed_bytes=units.gb(2.0),
                ),
                MigrationMove(
                    video_id="cold",
                    action="add",
                    warehouse="VW3",
                    source="VW",
                    transfer_cost=1.0,
                    staging_seconds=4000.0,  # one drive, a 3,600 s window
                ),
            ],
            saving=100.0,
            staging_cost=1.0,
            staging_seconds=4000.0,
        )
        rejected = []
        kept = planner._fit_budgets(
            incumbent, [relocation, _add("hot", "VW2", saving=50.0)], rejected
        )
        assert [(d.video_id, d.reason) for d in rejected] == [
            ("cold", "drive-budget"),
            ("hot", "disk-capacity"),
        ]
        candidate = ReplicaMap({"cold": ("VW", "VW3"), "hot": ("VW", "VW2")})
        adopted = planner._compose_map(incumbent, candidate, kept)
        held = sum(
            v.size for v in planner.catalog if "VW2" in adopted.homes(v.video_id)
        )
        assert held <= planner.warehouse.disk_capacity

    def test_no_warehouse_spec_skips_the_fit(self):
        planner, incumbent = _disk_env()
        planner.warehouse = None
        candidates = [_add("hot", "VW2", saving=50.0)]
        assert (
            planner._fit_budgets(incumbent, candidates, []) == candidates
        )

    def test_drop_moves_carry_their_reclaimed_bytes(self, planned):
        for decision in planned.accepted:
            for move in decision.moves:
                if move.action == "drop":
                    assert move.reclaimed_bytes > 0
                else:
                    assert move.reclaimed_bytes == 0.0
        doc = planned.to_json_dict()
        for decision in doc["accepted"]:
            for move in decision["moves"]:
                assert "reclaimed_bytes" in move

    def test_tight_disks_reject_adds_at_plan_level(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        """With 3 GB disks already over-occupied by the incumbent map, no
        add can fit and every add-carrying candidate is rejected with
        ``disk-capacity`` before the trial solve."""
        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(
            drill_topology,
            drill_catalog,
            warehouse=WarehouseSpec(disk_capacity=units.gb(3)),
        )
        plan = planner.plan(
            drill_cycles[1][0],
            drill_cycles[2][0],
            cm,
            what_if=_fresh(planner, cm),
        )
        assert any(d.reason == "disk-capacity" for d in plan.rejected)
        for decision in plan.accepted:
            assert all(m.action == "drop" for m in decision.moves)
