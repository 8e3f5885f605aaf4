"""One minimal triggering schedule per feasibility-violation kind.

Each test hand-builds the smallest schedule that trips exactly one check in
:func:`repro.sim.validate.validate_schedule`, pinning both the detector and
the ``kind`` string it reports.
"""

import pytest

from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.schedule import (
    DeliveryInfo,
    FileSchedule,
    ResidencyInfo,
    Schedule,
)
from repro.core.spacefunc import capacity_slack
from repro.faults.plan import FaultKind, FaultPlan, FaultSpec
from repro.faults.report import build_degraded_report
from repro.sim.engine import SimulationEngine
from repro.sim.validate import validate_schedule
from repro.topology.graph import Topology
from repro.workload.requests import Request, RequestBatch


SIZE = 100.0
PLAYBACK = 10.0


@pytest.fixture
def catalog():
    return VideoCatalog(
        [VideoFile("v", size=SIZE, playback=PLAYBACK, bandwidth=SIZE / PLAYBACK)]
    )


def _topology(*, capacity=1000.0, bandwidth=float("inf")) -> Topology:
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=0.01, capacity=capacity)
    topo.add_storage("IS2", srate=0.01, capacity=capacity)
    topo.add_edge("VW", "IS1", nrate=0.001, bandwidth=bandwidth)
    topo.add_edge("IS1", "IS2", nrate=0.001, bandwidth=bandwidth)
    return topo


def _delivery(request: Request, route: tuple[str, ...]) -> DeliveryInfo:
    return DeliveryInfo(
        video_id=request.video_id,
        route=route,
        start_time=request.start_time,
        request=request,
    )


def _kinds(violations) -> set[str]:
    return {v.kind for v in violations}


class TestViolationKinds:
    def test_coverage_unserved(self, catalog):
        cm = CostModel(_topology(), catalog)
        batch = RequestBatch([Request(0.0, "v", "u1", "IS1")])
        violations = validate_schedule(Schedule(), batch, cm)
        assert _kinds(violations) == {"coverage"}
        assert "unserved" in violations[0].message

    def test_coverage_double_served(self, catalog):
        cm = CostModel(_topology(), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r]), cm
        )
        assert _kinds(violations) == {"coverage"}
        assert "served 2 times" in violations[0].message

    def test_causality_unbacked_delivery(self, catalog):
        """A delivery sourced at an IS that never held a copy."""
        cm = CostModel(_topology(), catalog)
        r = Request(5.0, "v", "u1", "IS2")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("IS1", "IS2")))  # no residency at IS1
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r]), cm
        )
        assert _kinds(violations) == {"causality"}
        assert "no backing residency" in violations[0].message

    def test_capacity_overflow(self, catalog):
        """A residency whose reserved profile dwarfs the storage's capacity."""
        cm = CostModel(_topology(capacity=SIZE / 4), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        # long residency at IS1: holds the full file for several playbacks
        fs.add_residency(
            ResidencyInfo(
                "v", "IS1", "VW", t_start=0.0, t_last=5 * PLAYBACK,
                service_list=("u1",),
            )
        )
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r]), cm
        )
        assert _kinds(violations) == {"capacity"}
        assert "IS1" in violations[0].message

    def test_bandwidth_saturation(self, catalog):
        """Two simultaneous streams on a link that fits only one."""
        video = catalog["v"]
        cm = CostModel(
            _topology(bandwidth=1.5 * video.bandwidth), catalog
        )
        r1 = Request(0.0, "v", "u1", "IS1")
        r2 = Request(0.0, "v", "u2", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r1, ("VW", "IS1")))
        fs.add_delivery(_delivery(r2, ("VW", "IS1")))
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r1, r2]), cm
        )
        assert _kinds(violations) == {"bandwidth"}
        assert "VW" in violations[0].message and "IS1" in violations[0].message

    def test_feasible_schedule_is_clean(self, catalog):
        cm = CostModel(_topology(), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        assert validate_schedule(Schedule([fs]), RequestBatch([r]), cm) == []

    def test_fault_warehouse_loss(self, catalog):
        """A service broken by a downed warehouse gets its own kind."""
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        cm = CostModel(_topology(), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        plan = FaultPlan(
            (FaultSpec(FaultKind.WAREHOUSE_LOSS, "VW", 0.0, 100.0),), seed=0
        )
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r]), cm, faults=plan
        )
        assert "fault-warehouse-loss" in _kinds(violations)
        loss = [v for v in violations if v.kind == "fault-warehouse-loss"]
        assert "VW" in loss[0].message

    def test_is_outage_keeps_generic_fault_kind(self, catalog):
        """Non-warehouse faults still report plain fault-drop/late."""
        from repro.faults import FaultKind, FaultPlan, FaultSpec

        cm = CostModel(_topology(), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        plan = FaultPlan(
            (FaultSpec(FaultKind.IS_OUTAGE, "IS1", 0.0, 100.0),), seed=0
        )
        violations = validate_schedule(
            Schedule([fs]), RequestBatch([r]), cm, faults=plan
        )
        kinds = _kinds(violations)
        assert "fault-warehouse-loss" not in kinds
        assert kinds & {"fault-drop", "fault-late"}

    def test_replica_violation_delivery(self, catalog):
        """Serving from a warehouse that never held the video."""
        from repro import ReplicaMap

        topo = _topology()
        topo.add_warehouse("VW2")
        topo.add_edge("IS2", "VW2", nrate=0.001)
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"v": ("VW2",)}))
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        violations = validate_schedule(Schedule([fs]), RequestBatch([r]), cm)
        assert _kinds(violations) == {"replica"}
        assert "homed at ['VW2']" in violations[0].message

    def test_replica_violation_residency_fill(self, catalog):
        """A cache filled from a non-home warehouse is also flagged."""
        from repro import ReplicaMap

        topo = _topology()
        topo.add_warehouse("VW2")
        topo.add_edge("IS2", "VW2", nrate=0.001)
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"v": ("VW2",)}))
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW2", "IS2", "IS1")))
        fs.add_residency(
            ResidencyInfo(
                "v", "IS1", "VW", t_start=0.0, t_last=0.0,
                service_list=("u1",),
            )
        )
        violations = validate_schedule(Schedule([fs]), RequestBatch([r]), cm)
        assert _kinds(violations) == {"replica"}
        assert "residency" in violations[0].message

    def test_replica_map_on_cost_model_is_picked_up(self, catalog):
        """validate_schedule defaults to the model's own map."""
        from repro import ReplicaMap

        topo = _topology()
        topo.add_warehouse("VW2")
        topo.add_edge("IS2", "VW2", nrate=0.001)
        cm = CostModel(topo, catalog, replicas=ReplicaMap({"v": ("VW2",)}))
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        violations = validate_schedule(Schedule([fs]), RequestBatch([r]), cm)
        assert _kinds(violations) == {"replica"}

    def test_home_warehouse_source_is_clean(self, catalog):
        from repro import ReplicaMap

        cm = CostModel(_topology(), catalog, replicas=ReplicaMap({"v": ("VW",)}))
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        violations = validate_schedule(Schedule([fs]), RequestBatch([r]), cm)
        assert violations == []


class TestCapacityTolerance:
    """The storage check and the degraded replay's shrunk-capacity check
    allow usage up to ``capacity_slack``, the tolerance SORP places under."""

    def _cached(self):
        """A long residency at IS1: its reserved peak is ``SIZE``."""
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        fs.add_residency(
            ResidencyInfo(
                "v", "IS1", "VW", t_start=0.0, t_last=5 * PLAYBACK,
                service_list=("u1",),
            )
        )
        return Schedule([fs]), RequestBatch([r])

    @pytest.mark.parametrize("excess", [5e-10, 1.05e-9, 1e-8])
    def test_storage_check(self, catalog, excess):
        capacity = SIZE - excess
        cm = CostModel(_topology(capacity=capacity), catalog)
        violations = validate_schedule(*self._cached(), cm)
        assert bool(violations) == (SIZE > capacity_slack(capacity))
        assert _kinds(violations) <= {"capacity"}

    @pytest.mark.parametrize("excess", [5e-10, 1.05e-9, 1e-8])
    def test_shrunk_capacity_replay(self, catalog, excess):
        remaining = SIZE - excess
        cm = CostModel(_topology(capacity=2 * remaining), catalog)
        plan = FaultPlan((
            FaultSpec(
                FaultKind.CAPACITY_SHRINK, "IS1", 0.0, 6 * PLAYBACK,
                severity=0.5,
            ),
        ))
        violations = validate_schedule(*self._cached(), cm, faults=plan)
        assert bool(violations) == (SIZE > capacity_slack(remaining))
        assert _kinds(violations) <= {"fault-capacity"}


class TestLinkTolerance:
    """Links are judged with ``capacity_slack`` too: a load the bandwidth
    tracker admits (up to ``cap·(1+1e-12)``) is never flagged, a load
    ``1e-6`` above the bound always is, healthy or degraded."""

    BOUND = 1e7  # B/s; above ~1e3 the ``1e-12`` band exceeds ``EPS``

    def _streamed(self, bandwidth: float, link_bandwidth: float):
        """One stream of ``bandwidth`` over a ``link_bandwidth`` link."""
        catalog = VideoCatalog(
            [VideoFile("v", size=SIZE, playback=PLAYBACK, bandwidth=bandwidth)]
        )
        cm = CostModel(_topology(bandwidth=link_bandwidth), catalog)
        r = Request(0.0, "v", "u1", "IS1")
        fs = FileSchedule("v")
        fs.add_delivery(_delivery(r, ("VW", "IS1")))
        return Schedule([fs]), RequestBatch([r]), cm

    @pytest.mark.parametrize("rel, flagged", [(1e-12, False), (1e-6, True)])
    def test_link_check(self, rel, flagged):
        schedule, batch, cm = self._streamed(
            self.BOUND * (1 + rel), self.BOUND
        )
        violations = validate_schedule(schedule, batch, cm)
        assert _kinds(violations) == ({"bandwidth"} if flagged else set())
        load = SimulationEngine(cm).run(schedule).links[("IS1", "VW")]
        assert load.saturated is flagged

    @pytest.mark.parametrize("rel, flagged", [(1e-12, False), (1e-6, True)])
    def test_degraded_link_replay(self, rel, flagged):
        schedule, batch, cm = self._streamed(
            self.BOUND * (1 + rel), 2 * self.BOUND
        )
        plan = FaultPlan((
            FaultSpec(
                FaultKind.LINK_DEGRADED, ("VW", "IS1"), 0.0, 2 * PLAYBACK,
                severity=0.5,
            ),
        ))
        violations = validate_schedule(schedule, batch, cm, faults=plan)
        assert _kinds(violations) == (
            {"fault-bandwidth"} if flagged else set()
        )
        report = build_degraded_report(schedule, cm, plan)
        assert len(report.saturated_links) == int(flagged)
