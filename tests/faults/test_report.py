"""Tests for degraded-mode analysis: replaying a schedule under faults.

Each test hand-builds the smallest schedule + fault pair that triggers one
classification (dropped, late, stranded, saturated link, storage overflow)
and pins the exact outcome.
"""

import pytest

from repro import (
    FaultKind,
    FaultPlan,
    FaultSpec,
    Observability,
    build_degraded_report,
)
from repro.catalog.catalog import VideoCatalog
from repro.catalog.video import VideoFile
from repro.core.costmodel import CostModel
from repro.core.schedule import (
    DeliveryInfo,
    FileSchedule,
    ResidencyInfo,
    Schedule,
)
from repro.sim.validate import validate_schedule
from repro.topology.graph import Topology
from repro.workload.requests import Request, RequestBatch


SIZE = 100.0
PLAYBACK = 10.0
BANDWIDTH = SIZE / PLAYBACK  # 10 bytes/s


@pytest.fixture
def catalog():
    return VideoCatalog(
        [VideoFile("v", size=SIZE, playback=PLAYBACK, bandwidth=BANDWIDTH)]
    )


def _cost_model(catalog, *, capacity=1000.0, bandwidth=float("inf")):
    topo = Topology()
    topo.add_warehouse("VW")
    topo.add_storage("IS1", srate=0.01, capacity=capacity)
    topo.add_storage("IS2", srate=0.01, capacity=capacity)
    topo.add_edge("VW", "IS1", nrate=0.001, bandwidth=bandwidth)
    topo.add_edge("IS1", "IS2", nrate=0.001, bandwidth=bandwidth)
    return CostModel(topo, catalog)


def _schedule(*deliveries, residencies=()):
    fs = FileSchedule("v")
    for start, user, dest, route in deliveries:
        fs.add_delivery(
            DeliveryInfo(
                video_id="v",
                route=route,
                start_time=start,
                request=Request(start, "v", user, dest),
            )
        )
    for r in residencies:
        fs.add_residency(r)
    return Schedule([fs])


def _plan(kind, target, t0, t1, severity=0.0):
    return FaultPlan(
        (FaultSpec(kind=kind, target=target, t_start=t0, t_end=t1,
                   severity=severity),)
    )


class TestClassification:
    def test_drop_when_fault_active_at_stream_start(self, catalog):
        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 0.0, 20.0)
        report = build_degraded_report(sched, cm, plan)
        assert report.degraded
        assert report.requests_dropped == 1 and report.requests_late == 0
        impact = report.dropped[0]
        assert impact.user_id == "u1"
        assert impact.outcome == "dropped"
        assert impact.resource == "IS1-VW"
        assert impact.delay == 0.0
        assert report.impacted_videos == ("v",)

    def test_late_when_fault_begins_mid_stream(self, catalog):
        cm = _cost_model(catalog)
        # stream runs [5, 15); the link dies at 8 and recovers at 20
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 8.0, 20.0)
        report = build_degraded_report(sched, cm, plan)
        assert report.requests_dropped == 0 and report.requests_late == 1
        impact = report.late[0]
        assert impact.outcome == "late"
        # restart after recovery: 20 - 5 = 15 s late
        assert impact.delay == pytest.approx(15.0)

    def test_stranded_residency_on_storage_outage(self, catalog):
        cm = _cost_model(catalog)
        resid = ResidencyInfo(
            "v", "IS1", "VW", t_start=0.0, t_last=20.0, service_list=("u1",)
        )
        # the delivery window [5, 15) dodges the fault; only the cache is hit
        sched = _schedule(
            (5.0, "u1", "IS1", ("VW", "IS1")), residencies=[resid]
        )
        plan = _plan(FaultKind.IS_OUTAGE, "IS1", 25.0, 40.0)
        report = build_degraded_report(sched, cm, plan)
        assert report.requests_dropped == 0 and report.requests_late == 0
        assert len(report.stranded) == 1
        s = report.stranded[0]
        assert (s.video_id, s.location) == ("v", "IS1")
        assert report.impacted_videos == ("v",)

    def test_stranded_residency_when_fill_source_is_lost(self, catalog):
        cm = _cost_model(catalog)
        # IS1 caches the stream it fills from VW over [0, 10) and serves u2
        # from it at 15; VW is lost over [2, 8), mid-fill
        resid = ResidencyInfo(
            "v", "IS1", "VW", t_start=0.0, t_last=15.0, service_list=("u2",)
        )
        sched = _schedule(
            (0.0, "u1", "IS1", ("VW", "IS1")),
            (15.0, "u2", "IS2", ("IS1", "IS2")),
            residencies=[resid],
        )
        batch = RequestBatch([d.request for d in sched.deliveries])
        assert validate_schedule(sched, batch, cm) == []
        plan = _plan(FaultKind.WAREHOUSE_LOSS, "VW", 2.0, 8.0)
        report = build_degraded_report(sched, cm, plan)
        (s,) = report.stranded
        assert (s.location, s.fault) == ("IS1", plan.faults[0].key)
        violations = validate_schedule(sched, batch, cm, faults=plan)
        assert "fault-stranded" in {v.kind for v in violations}

    def test_stranded_residency_when_fill_route_is_lost(self, catalog):
        cm = _cost_model(catalog)
        # IS2 caches the stream VW -> IS1 -> IS2 it fills from over [0, 10)
        # and serves u2 from it at 15; IS1 is down over [2, 8), mid-fill
        resid = ResidencyInfo(
            "v", "IS2", "VW", t_start=0.0, t_last=15.0, service_list=("u2",)
        )
        sched = _schedule(
            (0.0, "u1", "IS2", ("VW", "IS1", "IS2")),
            (15.0, "u2", "IS2", ("IS2",)),
            residencies=[resid],
        )
        batch = RequestBatch([d.request for d in sched.deliveries])
        assert validate_schedule(sched, batch, cm) == []
        plan = _plan(FaultKind.IS_OUTAGE, "IS1", 2.0, 8.0)
        report = build_degraded_report(sched, cm, plan)
        (s,) = report.stranded
        assert (s.location, s.fault) == ("IS2", plan.faults[0].key)
        violations = validate_schedule(sched, batch, cm, faults=plan)
        assert "fault-stranded" in {v.kind for v in violations}

    def test_fault_past_the_cache_leaves_its_fill_alone(self, catalog):
        cm = _cost_model(catalog)
        # the stream VW -> IS1 -> IS2 fills IS1 on its way; IS2 going down
        # mid-stream loses u1's service but not the copy at IS1
        resid = ResidencyInfo(
            "v", "IS1", "VW", t_start=0.0, t_last=15.0, service_list=("u2",)
        )
        sched = _schedule(
            (0.0, "u1", "IS2", ("VW", "IS1", "IS2")),
            (15.0, "u2", "IS1", ("IS1",)),
            residencies=[resid],
        )
        plan = _plan(FaultKind.IS_OUTAGE, "IS2", 2.0, 8.0)
        report = build_degraded_report(sched, cm, plan)
        assert report.requests_late == 1
        assert report.stranded == ()

    def test_disjoint_fault_window_leaves_schedule_untouched(self, catalog):
        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 50.0, 60.0)
        report = build_degraded_report(sched, cm, plan)
        assert not report.degraded
        assert report.impacted_videos == ()

    def test_unrelated_resource_leaves_schedule_untouched(self, catalog):
        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.IS_OUTAGE, "IS2", 0.0, 20.0)
        report = build_degraded_report(sched, cm, plan)
        assert not report.degraded

    def test_saturated_link_under_degradation(self, catalog):
        cm = _cost_model(catalog, bandwidth=2.5 * BANDWIDTH)
        # two concurrent streams load the link at 2x video bandwidth, which
        # fits the healthy link but not the 40%-degraded one
        sched = _schedule(
            (0.0, "u1", "IS1", ("VW", "IS1")),
            (0.0, "u2", "IS1", ("VW", "IS1")),
        )
        plan = _plan(
            FaultKind.LINK_DEGRADED, ("VW", "IS1"), 0.0, 5.0, severity=0.4
        )
        report = build_degraded_report(sched, cm, plan)
        assert len(report.saturated_links) == 1
        stress = report.saturated_links[0]
        assert stress.edge == ("IS1", "VW")
        assert stress.effective_bandwidth == pytest.approx(BANDWIDTH)
        assert stress.peak == pytest.approx(2 * BANDWIDTH)
        # stress is clipped to the fault window, not the stream window
        assert stress.intervals == ((0.0, 5.0),)

    def test_storage_overflow_under_capacity_shrink(self, catalog):
        cm = _cost_model(catalog, capacity=1.5 * SIZE)
        resid = ResidencyInfo(
            "v", "IS1", "VW", t_start=0.0, t_last=20.0, service_list=("u1",)
        )
        sched = _schedule(
            (5.0, "u1", "IS1", ("VW", "IS1")), residencies=[resid]
        )
        plan = _plan(
            FaultKind.CAPACITY_SHRINK, "IS1", 0.0, 15.0, severity=0.5
        )
        report = build_degraded_report(sched, cm, plan)
        assert len(report.storage_overflows) == 1
        stress = report.storage_overflows[0]
        assert stress.location == "IS1"
        assert stress.effective_capacity == pytest.approx(0.75 * SIZE)
        assert stress.peak >= SIZE
        assert all(0.0 <= a < b <= 15.0 for a, b in stress.intervals)

    def test_counts_injected_faults(self, catalog):
        """The replay carries no faults; the report counts them itself."""
        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 0.0, 20.0)
        obs = Observability.on()
        build_degraded_report(sched, cm, plan, obs=obs)
        snap = obs.metrics.snapshot()
        assert snap["vor_faults_injected_total"]["values"] == [
            {"labels": {}, "value": 1}
        ]
        kinds = {
            e["labels"]["kind"] for e in snap["vor_sim_events_total"]["values"]
        }
        assert kinds == {
            "stream_start", "stream_end", "service_start", "service_end"
        }
        (span,) = [r for r in obs.tracer.records if r.name == "simulate"]
        assert dict(span.attrs) == {
            "deliveries": 1, "residencies": 0, "events": 4
        }

    def test_report_is_deterministic_and_json_clean(self, catalog):
        import json

        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 0.0, 20.0)
        first = build_degraded_report(sched, cm, plan)
        second = build_degraded_report(sched, cm, plan)
        assert first == second
        doc = first.to_json_dict()
        assert json.loads(json.dumps(doc)) == doc
        assert doc["requests_dropped"] == 1


class TestFaultViolations:
    def test_validate_schedule_reports_fault_kinds(self, catalog):
        cm = _cost_model(catalog)
        resid = ResidencyInfo(
            "v", "IS1", "VW", t_start=0.0, t_last=20.0, service_list=("u1",)
        )
        sched = _schedule(
            (5.0, "u1", "IS1", ("VW", "IS1")), residencies=[resid]
        )
        batch = RequestBatch([d.request for d in sched.deliveries])
        plan = _plan(FaultKind.IS_OUTAGE, "IS1", 0.0, 40.0)
        healthy = validate_schedule(sched, batch, cm)
        assert healthy == []
        degraded = validate_schedule(sched, batch, cm, faults=plan)
        assert {v.kind for v in degraded} == {"fault-drop", "fault-stranded"}

    def test_fault_late_violation_message(self, catalog):
        cm = _cost_model(catalog)
        sched = _schedule((5.0, "u1", "IS1", ("VW", "IS1")))
        batch = RequestBatch([d.request for d in sched.deliveries])
        plan = _plan(FaultKind.LINK_DOWN, ("VW", "IS1"), 8.0, 20.0)
        violations = validate_schedule(sched, batch, cm, faults=plan)
        # the dead link also shows up as zero-bandwidth stress mid-stream
        assert {v.kind for v in violations} == {"fault-late", "fault-bandwidth"}
        late = [v for v in violations if v.kind == "fault-late"]
        assert "delayed 15s" in late[0].message
