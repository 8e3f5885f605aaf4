"""The migration planner's screen and trial acceptance rule."""

from __future__ import annotations

import pytest

from repro import CostModel, ReplicaMap, units
from repro.extensions.rolling import RollingScheduler
from repro.horizon import MigrationPlanner
from repro.horizon.migration import MOVE_REASONS
from repro.topology.graph import ChargingBasis

from .conftest import brownout_topology


def _fresh(planner):
    """Trial solves with no carryover: a fresh rolling scheduler's
    what-if."""
    return RollingScheduler(planner.topology, planner.catalog).what_if


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
        what_if=_fresh(planner),
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
            what_if=_fresh(planner),
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
                what_if=_fresh(planner),
            )

    def test_rejections_sorted_when_no_candidate_reaches_the_trial(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        """Boundary 1 with the next cycle's bookings for the titles the
        full plan accepts withheld: every move is rejected by the screen
        (``no-demand`` or ``no-improvement``), no trial runs, and the plan
        lists its rejections by video id."""
        from repro import RequestBatch

        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(drill_topology, drill_catalog)
        winners = {"video0014", "video0033", "video0059"}
        next_batch = RequestBatch(
            r for r in drill_cycles[2][0] if r.video_id not in winners
        )
        plan = planner.plan(
            drill_cycles[1][0],
            next_batch,
            cm,
            what_if=_fresh(planner),
            boundary_index=1,
        )
        assert plan.trial_psi_incumbent is None
        assert not plan.applied
        reasons = {d.video_id: d.reason for d in plan.rejected}
        assert all(reasons[v] == "no-demand" for v in winners)
        assert set(reasons.values()) == {"no-demand", "no-improvement"}
        ids = [d.video_id for d in plan.rejected]
        assert ids == sorted(ids)

    def test_no_demand_next_cycle_accepts_nothing(
        self, drill_topology, drill_catalog, drill_cycles, drill_replicas
    ):
        from repro import RequestBatch

        cm = CostModel(drill_topology, drill_catalog, replicas=drill_replicas)
        planner = MigrationPlanner(drill_topology, drill_catalog)
        plan = planner.plan(
            drill_cycles[1][0], RequestBatch([]), cm, what_if=_fresh(planner)
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
            what_if=_fresh(planner),
        )
        assert not plan.applied
        assert not plan.accepted
        assert plan.new_map is plan.old_map
