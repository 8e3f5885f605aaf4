"""Warehouse-loss drills: replication makes archive loss survivable.

The acceptance drill from the replication work: on a two-warehouse chain
with full-copy replicas, losing one warehouse must *save* requests that
the paper's single-warehouse topology inevitably loses, and the recovery
outcome must be bit-identical on rerun.
"""

from __future__ import annotations

import pytest

from repro import (
    ContingencyScheduler,
    CostModel,
    FaultKind,
    FaultPlan,
    FaultSpec,
    ReplicaMap,
    Request,
    RequestBatch,
    Topology,
    VideoScheduler,
)
from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.sim import validate_schedule


def _two_warehouse_topology() -> Topology:
    """VW1 - IS1 - IS2 - VW2: either end can serve either storage."""
    t = Topology()
    t.add_warehouse("VW1")
    t.add_storage("IS1", srate=1e-3, capacity=1e12)
    t.add_storage("IS2", srate=1e-3, capacity=1e12)
    t.add_warehouse("VW2")
    t.add_edge("VW1", "IS1", nrate=1.0)
    t.add_edge("IS1", "IS2", nrate=1.0)
    t.add_edge("IS2", "VW2", nrate=1.0)
    return t


def _single_warehouse_topology() -> Topology:
    """The paper's shape: one warehouse feeding the same chain."""
    t = Topology()
    t.add_warehouse("VW1")
    t.add_storage("IS1", srate=1e-3, capacity=1e12)
    t.add_storage("IS2", srate=1e-3, capacity=1e12)
    t.add_edge("VW1", "IS1", nrate=1.0)
    t.add_edge("IS1", "IS2", nrate=1.0)
    return t


@pytest.fixture
def catalog():
    return VideoCatalog(
        [
            VideoFile("v", size=100.0, playback=10.0),
            VideoFile("w", size=100.0, playback=10.0),
        ]
    )


@pytest.fixture
def batch():
    return RequestBatch(
        [
            Request(0.0, "v", "u1", "IS1"),
            Request(5.0, "v", "u2", "IS2"),
            Request(0.0, "w", "u3", "IS2"),
        ]
    )


def _loss(target: str) -> FaultPlan:
    return FaultPlan(
        (FaultSpec(FaultKind.WAREHOUSE_LOSS, target, 0.0, 1e6),), seed=0
    )


class TestSurvivability:
    def test_replicated_drill_saves_what_single_warehouse_loses(
        self, catalog, batch
    ):
        """The acceptance drill: >= 1 request saved that the paper's
        topology cannot serve once its only warehouse dies."""
        # replicated environment
        topo2 = _two_warehouse_topology()
        sched2 = VideoScheduler(
            topo2, catalog, replicas=ReplicaMap.full_copy(topo2, catalog)
        )
        baseline2 = sched2.solve(batch)
        rec2 = ContingencyScheduler(sched2.cost_model).recover(
            baseline2, _loss("VW1")
        )

        # paper environment: same chain, only VW1
        topo1 = _single_warehouse_topology()
        sched1 = VideoScheduler(topo1, catalog)
        baseline1 = sched1.solve(batch)
        rec1 = ContingencyScheduler(sched1.cost_model).recover(
            baseline1, _loss("VW1")
        )

        assert rec1.requests_saved == 0
        assert rec1.requests_lost == len(batch)
        assert rec2.requests_lost == 0
        assert rec2.requests_saved >= 1
        saved_not_lost = {
            (r.user_id, r.video_id) for r in rec2.saved
        } & {(r.user_id, r.video_id) for r in rec1.lost}
        assert saved_not_lost  # concretely the same requests

    def test_recovery_reports_psi_delta(self, catalog, batch):
        topo = _two_warehouse_topology()
        sched = VideoScheduler(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        result = sched.solve(batch)
        rec = ContingencyScheduler(sched.cost_model).recover(
            result, _loss("VW1")
        )
        assert rec.cost_before.total == pytest.approx(result.total_cost)
        assert rec.cost_delta == pytest.approx(
            rec.cost_after.total - rec.cost_before.total
        )
        doc = rec.to_json_dict()
        assert doc["requests_saved"] == rec.requests_saved
        assert doc["psi_delta_dollars"] == pytest.approx(rec.cost_delta)

    def test_patched_schedule_avoids_dead_warehouse(self, catalog, batch):
        topo = _two_warehouse_topology()
        sched = VideoScheduler(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        rec = ContingencyScheduler(sched.cost_model).recover(
            sched.solve(batch), _loss("VW1")
        )
        for d in rec.schedule.deliveries:
            assert "VW1" not in d.route
        # and it validates against the surviving replica set
        masked_cm = CostModel(
            _masked(topo, "VW1"),
            catalog,
            replicas=ReplicaMap({v.video_id: ("VW2",) for v in catalog}),
        )
        violations = validate_schedule(rec.schedule, batch, masked_cm)
        assert violations == [], [str(v) for v in violations]

    def test_degree_one_video_dies_with_its_only_home(self, catalog):
        """A video pinned to the lost warehouse stays lost even though a
        second warehouse survives -- replication degree is what saves."""
        topo = _two_warehouse_topology()
        pinned = ReplicaMap({"v": ("VW1",), "w": ("VW1", "VW2")})
        # both videos demanded at IS1, so both baseline streams leave VW1
        batch = RequestBatch(
            [Request(0.0, "v", "u1", "IS1"), Request(0.0, "w", "u2", "IS1")]
        )
        sched = VideoScheduler(topo, catalog, replicas=pinned)
        baseline = sched.solve(batch)
        assert {d.source for d in baseline.schedule.deliveries} == {"VW1"}
        rec = ContingencyScheduler(sched.cost_model).recover(
            baseline, _loss("VW1")
        )
        lost_videos = {r.video_id for r in rec.lost}
        saved_videos = {r.video_id for r in rec.saved}
        assert lost_videos == {"v"}
        assert saved_videos == {"w"}

    def test_total_warehouse_loss_is_graceful(self, catalog, batch):
        """Downing every warehouse loses everything but does not raise."""
        topo = _two_warehouse_topology()
        sched = VideoScheduler(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        plan = FaultPlan(
            (
                FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW1", 0.0, 1e6),
                FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW2", 0.0, 1e6),
            ),
            seed=0,
        )
        rec = ContingencyScheduler(sched.cost_model).recover(
            sched.solve(batch), plan
        )
        assert rec.requests_saved == 0
        assert rec.requests_lost == len(batch)
        assert rec.resolution is None


class TestRecoveryDeterminism:
    def test_recovery_bit_identical_on_rerun(self, catalog, batch):
        topo = _two_warehouse_topology()
        sched = VideoScheduler(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        baseline = sched.solve(batch)
        # the solve's warm model, then a fresh one carrying the same map
        fresh = CostModel(topo, catalog, replicas=sched.cost_model.replicas)
        first, again = (
            ContingencyScheduler(cm).recover(baseline, _loss("VW1"))
            for cm in (sched.cost_model, fresh)
        )
        assert again.saved == first.saved
        assert again.lost == first.lost
        # exact float equality: the recovery must be bit-identical
        assert again.cost_after == first.cost_after
        assert _canonical(again.schedule) == _canonical(first.schedule)

    def test_larger_drill_bit_identical(self, catalog):
        """A six-video drill replays bit-identically on a fresh model."""
        videos = [
            VideoFile(f"x{i}", size=50.0 + i, playback=10.0)
            for i in range(6)
        ]
        catalog = VideoCatalog(videos)
        topo = _two_warehouse_topology()
        batch = RequestBatch(
            [
                Request(float(i), f"x{i % 6}", f"u{i}", ("IS1", "IS2")[i % 2])
                for i in range(12)
            ]
        )
        sched = VideoScheduler(
            topo, catalog, replicas=ReplicaMap.full_copy(topo, catalog)
        )
        baseline = sched.solve(batch)
        fresh = CostModel(topo, catalog, replicas=sched.cost_model.replicas)
        snapshots = []
        for cm in (sched.cost_model, fresh):
            rec = ContingencyScheduler(cm).recover(baseline, _loss("VW2"))
            snapshots.append(
                (rec.saved, rec.lost, rec.cost_after, _canonical(rec.schedule))
            )
        assert snapshots[0] == snapshots[1]


def _masked(topo: Topology, *down: str) -> Topology:
    from repro.faults import masked_topology

    plan = FaultPlan(
        tuple(FaultSpec(FaultKind.WAREHOUSE_LOSS, d, 0.0, 1e6) for d in down),
        seed=0,
    )
    return masked_topology(topo, plan)


def _canonical(schedule):
    """Order-independent, exact snapshot of a schedule's contents."""
    files = []
    for fs in sorted(schedule, key=lambda f: f.video_id):
        files.append(
            (
                fs.video_id,
                tuple(
                    (d.route, d.start_time, d.request.user_id)
                    for d in sorted(
                        fs.deliveries,
                        key=lambda d: (d.start_time, d.request.user_id),
                    )
                ),
                tuple(
                    (c.location, c.source, c.t_start, c.t_last, c.service_list)
                    for c in sorted(
                        fs.residencies,
                        key=lambda c: (c.location, c.t_start),
                    )
                ),
            )
        )
    return tuple(files)
